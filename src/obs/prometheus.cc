#include "obs/prometheus.h"

#include <cctype>
#include <cmath>
#include <fstream>
#include <set>

#include "common/file_io.h"
#include "obs/json_util.h"

namespace mapp::obs {

namespace {

/**
 * A Prometheus sample value. Unlike JSON, the exposition format has
 * literals for the non-finite values, so they pass through instead of
 * becoming gaps.
 */
std::string
promNumber(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    std::string out;
    appendJsonNumber(out, v);
    return out;
}

}  // namespace

std::string
prometheusName(std::string_view name)
{
    std::string out = "mapp_";
    for (const char c : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
                        c == '_' || c == ':';
        out += ok ? c : '_';
    }
    return out;
}

std::string
writePrometheus(const RegistrySnapshot& snapshot)
{
    std::string out;
    // Registry names are free-form ("bench.cache.hits", "serve-queue")
    // and sanitize many-to-one; a duplicate metric name (or a second
    // TYPE line for one name) makes the whole exposition invalid to a
    // 0.0.4 scraper, so only the first instrument mapping to a
    // sanitized name is emitted and later collisions become comments.
    std::set<std::string> emitted;
    const auto claim = [&](const std::string& prom,
                           std::string_view original) {
        if (emitted.insert(prom).second)
            return true;
        out += "# mapp: skipped '" + std::string(original) +
               "': sanitized name " + prom + " already emitted\n";
        return false;
    };
    for (const auto& [name, value] : snapshot.counters) {
        const std::string prom = prometheusName(name);
        if (!claim(prom, name))
            continue;
        out += "# TYPE " + prom + " counter\n";
        out += prom + " " + std::to_string(value) + "\n";
    }
    for (const auto& [name, value] : snapshot.gauges) {
        const std::string prom = prometheusName(name);
        if (!claim(prom, name))
            continue;
        out += "# TYPE " + prom + " gauge\n";
        out += prom + " " + promNumber(value) + "\n";
    }
    for (const auto& h : snapshot.histograms) {
        const std::string prom = prometheusName(h.name);
        if (!claim(prom, h.name))
            continue;
        out += "# TYPE " + prom + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            cumulative += h.counts[i];
            const std::string le = i < h.bounds.size()
                                       ? promNumber(h.bounds[i])
                                       : "+Inf";
            out += prom + "_bucket{le=\"" + le + "\"} " +
                   std::to_string(cumulative) + "\n";
        }
        out += prom + "_sum " + promNumber(h.sum) + "\n";
        out += prom + "_count " + std::to_string(h.count) + "\n";
    }
    return out;
}

bool
writePrometheusFile(const RegistrySnapshot& snapshot,
                    const std::string& path)
{
    return writeFileAtomic(path, writePrometheus(snapshot));
}

}  // namespace mapp::obs
