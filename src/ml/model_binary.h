/**
 * @file
 * Trained-model binary serialization — the artifact-cache format for
 * fitted trees. A tree is stored as its hyper-parameters, feature
 * names, and flat node array (versioned "MMDL" frame).
 * Deserialization rebuilds through DecisionTreeRegressor::fromNodes,
 * which re-validates the structure, so a corrupt model file surfaces
 * as a located mapp::InputError (or a FatalError from the structural
 * checks) and the cache falls back to refitting — a reconstructed
 * model predicts bit-identically to the one that was saved.
 */

#ifndef MAPP_ML_MODEL_BINARY_H
#define MAPP_ML_MODEL_BINARY_H

#include <string>

#include "ml/decision_tree.h"

namespace mapp::ml {

/** Serialize a trained tree. @throws FatalError if untrained. */
std::string treeToBinary(const DecisionTreeRegressor& tree);

/**
 * Parse a tree from a blob produced by treeToBinary.
 * @param source label for error messages (e.g. the blob's path)
 * @throws InputError on a malformed blob; FatalError on structurally
 *         invalid nodes.
 */
DecisionTreeRegressor treeFromBinary(const std::string& blob,
                                     const std::string& source = "");

}  // namespace mapp::ml

#endif  // MAPP_ML_MODEL_BINARY_H
