/**
 * @file
 * Predictor-guided co-scheduling: the paper's motivating application.
 * Given a queue of offloaded jobs, a CoScheduler pairs them into 2-app
 * MPS bags so the predicted total GPU time is minimized — using only
 * quantities that are legitimate to know before running on the GPU
 * (single-instance features and the CPU-measured fairness), never the
 * measured bag time itself.
 */

#ifndef MAPP_PREDICTOR_SCHEDULER_H
#define MAPP_PREDICTOR_SCHEDULER_H

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "predictor/data_collection.h"
#include "predictor/predictor.h"

namespace mapp::predictor {

/** One scheduled bag with its predicted time. */
struct ScheduledBag
{
    BagSpec spec;
    double predictedSeconds = 0.0;
};

/** A complete pairing of the job queue. */
struct Schedule
{
    std::vector<ScheduledBag> bags;
    /** Unpaired trailing job for odd-sized queues (runs alone). */
    std::optional<BagMember> leftover;
    /** Sum of predicted bag times (+ leftover's single-instance time). */
    double predictedTotalSeconds = 0.0;
};

/** Pairing strategies. */
enum class PairingPolicy {
    Fifo,        ///< pair jobs in arrival order (the baseline)
    Greedy,      ///< head job + partner with the smallest predicted bag
    Exhaustive,  ///< best pairing over all perfect matchings (n <= 14)
};

/** Predictor-guided 2-app co-scheduler. */
class CoScheduler
{
  public:
    /**
     * @param model trained predictor (must outlive the scheduler)
     * @param collector measurement source for single-instance features
     *        and CPU fairness (must outlive the scheduler)
     */
    CoScheduler(const MultiAppPredictor& model, DataCollector& collector);

    /** Build a schedule for the queue under the given policy. */
    Schedule schedule(const std::vector<BagMember>& jobs,
                      PairingPolicy policy) const;

    /** Predicted GPU time of one bag (features + CPU fairness only). */
    double predictBag(const BagSpec& spec) const;

    /**
     * Measured total GPU time of executing a schedule's bags serially
     * (ground truth for evaluating a policy).
     */
    double measure(const Schedule& schedule) const;

  private:
    /**
     * Per-scheduling-round caches. Every distinct job's single-app
     * features are fetched from the collector exactly once per round
     * (instead of twice per candidate evaluation), and every scored
     * canonical pairing keeps its predicted time so the greedy loop,
     * the matching enumeration and finalize() never re-measure or
     * re-predict a pair.
     */
    struct Round
    {
        std::map<BagMember, const AppFeatures*> features;
        std::map<std::pair<BagMember, BagMember>, double> scores;
    };

    /** Prefetch each distinct member's features (in parallel). */
    Round makeRound(const std::vector<BagMember>& jobs) const;

    /**
     * Predicted time of every (canonical) candidate bag, scored in
     * one batch: fairness for uncached pairs is measured across
     * parallelFor lanes, then the model predicts all of them in a
     * single predictBatch() call.
     */
    std::vector<double> scoreBags(const std::vector<BagSpec>& specs,
                                  Round& round) const;

    Schedule pairFifo(std::vector<BagMember> jobs, Round& round) const;
    Schedule pairGreedy(std::vector<BagMember> jobs, Round& round) const;
    Schedule pairExhaustive(std::vector<BagMember> jobs,
                            Round& round) const;
    void finalize(Schedule& schedule, Round& round) const;

    const MultiAppPredictor& model_;
    DataCollector& collector_;
};

}  // namespace mapp::predictor

#endif  // MAPP_PREDICTOR_SCHEDULER_H
