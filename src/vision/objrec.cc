#include "vision/objrec.h"

#include <algorithm>

#include "common/log.h"
#include "common/rng.h"
#include "vision/ops.h"
#include "vision/registry.h"

namespace mapp::vision {

namespace {

/** Seed of the prototype scenes the recognizer trains on. */
constexpr std::uint64_t kPrototypeSeed = 0xC1A55ull;

/** Generate a prototype scene for one synthetic object class. */
Image
classPrototype(int cls, int size, Rng& rng)
{
    switch (cls % 3) {
      case 0:
        return synth::texture(size, size, rng);
      case 1: {
        Image img = synth::texture(size, size, rng);
        synth::drawDisc(img, size / 2, size / 2, size / 4, 230.0f);
        synth::drawDisc(img, size / 2, size / 2, size / 8, 40.0f);
        return img;
      }
      default:
        return synth::facesScene(size, size, rng, 2);
    }
}

}  // namespace

void
ObjectRecognizer::train(int image_size, std::uint64_t seed,
                        const ObjRecParams& params)
{
    params_ = params;
    Rng rng(seed);

    // HoG descriptors of the prototypes.
    std::vector<Descriptor> xs;
    std::vector<int> classes;
    for (int cls = 0; cls < params.numClasses; ++cls) {
        for (int p = 0; p < params.prototypesPerClass; ++p) {
            const Image proto = classPrototype(cls, image_size, rng);
            xs.push_back(computeHog(proto, params.hog));
            classes.push_back(cls);
        }
    }

    // One-vs-rest linear SVMs.
    models_.clear();
    models_.resize(static_cast<std::size_t>(params.numClasses));
    for (int cls = 0; cls < params.numClasses; ++cls) {
        std::vector<int> labels;
        labels.reserve(classes.size());
        for (int c : classes)
            labels.push_back(c == cls ? 1 : -1);
        models_[static_cast<std::size_t>(cls)].train(xs, labels,
                                                     params.svm);
    }
}

int
ObjectRecognizer::classify(const Image& img) const
{
    if (models_.empty())
        fatal("ObjectRecognizer::classify: model not trained");
    const Descriptor hog = computeHog(img, params_.hog);
    int best = 0;
    double bestScore = -1e300;
    for (std::size_t cls = 0; cls < models_.size(); ++cls) {
        const double score = models_[cls].decision(hog);
        if (score > bestScore) {
            bestScore = score;
            best = static_cast<int>(cls);
        }
    }
    // Decision-stage phase: numClasses dot products over the descriptor.
    const auto dim = static_cast<InstCount>(hog.size());
    const auto nc = static_cast<InstCount>(models_.size());
    ops::PhaseBuilder("objrec_classify")
        .insts(isa::InstClass::MemRead, nc * dim * 2)
        .insts(isa::InstClass::Simd, nc * dim * 3 / 2)
        .insts(isa::InstClass::FpAlu, nc * dim / 4)
        .insts(isa::InstClass::IntAlu, nc * 6)
        .insts(isa::InstClass::Control, nc * 4)
        .insts(isa::InstClass::Stack, nc * 2)
        .read(nc * dim * sizeof(float))
        .foot(static_cast<Bytes>(dim) * sizeof(float) *
              static_cast<Bytes>(models_.size() + 1))
        .par(0.9)
        .items(nc)
        .loc(0.7)
        .div(0.05)
        .record();
    return best;
}

std::size_t
runObjRecBenchmark(ImageStream& batch, const ObjRecParams& params)
{
    ObjectRecognizer rec;
    std::size_t checksum = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Image img = batch.next();
        // Train once, on prototypes the size of the inputs.
        if (!rec.trained())
            rec.train(img.width(), kPrototypeSeed, params);
        const Image staged = ops::copyImage(img);
        checksum += static_cast<std::size_t>(rec.classify(staged));
    }
    return checksum;
}

void
profileObjRecByShape(ImageStream& batch, const ObjRecParams& params)
{
    if (batch.size() == 0)
        return;
    const Image img = batch.next();
    ObjectRecognizer rec;
    rec.train(img.width(), kPrototypeSeed, params);
    ops::recordRepeated(batch.size() - 1,
                        [&] { rec.classify(ops::copyImage(img)); });
}

}  // namespace mapp::vision
