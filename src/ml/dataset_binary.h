/**
 * @file
 * ml::Dataset binary serialization — the artifact-cache format for
 * collected campaigns. Versioned "MDST" frame: feature names, then one
 * packed little-endian f64 block per row plus its target and group,
 * trailing FNV checksum. Round-trips bit-identically (doubles are
 * stored by bit pattern) and loads far faster than the strict CSV
 * parse of dataset_io.h; corruption surfaces as a located
 * mapp::InputError, never a poisoned model.
 */

#ifndef MAPP_ML_DATASET_BINARY_H
#define MAPP_ML_DATASET_BINARY_H

#include <string>

#include "cache/hash.h"
#include "ml/dataset.h"

namespace mapp::ml {

/** Serialize a dataset into a checksummed binary blob. */
std::string datasetToBinary(const Dataset& data);

/**
 * Parse a dataset from a blob produced by datasetToBinary.
 * @param source label for error messages (e.g. the blob's path)
 * @throws InputError on a short/garbled/wrong-magic/wrong-version blob;
 *         NaN/Inf cells are rejected by Dataset::addRow as usual.
 */
Dataset datasetFromBinary(const std::string& blob,
                          const std::string& source = "");

/**
 * Fold a dataset's full content (names, rows, targets, groups) into a
 * cache-key hasher — the content-addressing step for artifacts derived
 * from a dataset (e.g. models trained on it).
 */
void hashDataset(cache::Hasher& hasher, const Dataset& data);

}  // namespace mapp::ml

#endif  // MAPP_ML_DATASET_BINARY_H
