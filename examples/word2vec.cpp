// word2vec skip-gram on a Text8-like corpus (the paper's NLP workload,
// Section 5.1): one-hot input word, multi-hot context targets, SimHash LSH
// on the softmax output, window 2.
//
//   ./word2vec [vocab] [epochs]
//
// After training, the hidden layer's input weights are word embeddings;
// the example prints nearest neighbours of a few frequent words to show the
// embeddings carry the corpus's topical structure.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/network.h"
#include "core/trainer.h"
#include "data/text_corpus.h"

namespace {

// Embedding of word w = every hidden neuron's weight on input w (one
// contiguous row of the feature-major input layer).
std::vector<float> embedding(const slide::Network& net, std::uint32_t word) {
  const slide::Layer& hidden = net.layer(0);
  std::vector<float> e(hidden.dim());
  for (std::uint32_t n = 0; n < hidden.dim(); ++n) e[n] = hidden.weight(n, word);
  return e;
}

double cosine(const std::vector<float>& a, const std::vector<float>& b) {
  double dot = 0, na = 0, nb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  return dot / (std::sqrt(na) * std::sqrt(nb) + 1e-12);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slide;
  const std::size_t vocab = argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 3000;
  const std::size_t epochs = argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 4;

  data::CorpusConfig ccfg;
  ccfg.vocab_size = vocab;
  ccfg.num_tokens = 20 * vocab;
  ccfg.num_topics = std::max<std::size_t>(10, vocab / 100);
  ccfg.window = 2;  // the paper's window size
  auto [train, test] = data::make_skipgram_datasets(ccfg, 0.9);
  std::printf("skip-gram dataset: %zu train pairs, %zu test pairs, vocab %zu\n",
              train.size(), test.size(), vocab);

  // The paper's Text8 setup: hidden 200, SimHash K=9 L=50 on the output.
  LshLayerConfig lsh;
  lsh.kind = HashKind::SimHash;
  lsh.k = 9;
  lsh.l = 50;
  lsh.min_active = 64;
  lsh.max_active = vocab / 4;
  lsh.rebuild_interval = 16;
  Network net(make_slide_mlp(vocab, 200, vocab, lsh));

  TrainerConfig tcfg;
  tcfg.batch_size = 512;  // the paper's Text8 batch size
  tcfg.adam.lr = 2e-3f;
  tcfg.epochs = epochs;
  tcfg.eval_max_examples = 1000;
  Trainer trainer(net, tcfg);
  const TrainResult result = trainer.train(train, test);
  for (const auto& e : result.history) {
    std::printf("epoch %zu: %.3fs  loss=%.4f  P@1=%.4f\n", e.epoch, e.train_seconds,
                e.avg_loss, e.p_at_1);
  }

  // Nearest neighbours of a few head words (Zipf rank 1..5).
  std::printf("\nnearest neighbours by embedding cosine:\n");
  for (std::uint32_t w = 0; w < 5; ++w) {
    const auto ew = embedding(net, w);
    std::vector<std::pair<double, std::uint32_t>> sims;
    for (std::uint32_t o = 0; o < std::min<std::size_t>(vocab, 2000); ++o) {
      if (o == w) continue;
      sims.emplace_back(cosine(ew, embedding(net, o)), o);
    }
    std::partial_sort(sims.begin(), sims.begin() + 3, sims.end(),
                      [](const auto& a, const auto& b) { return a.first > b.first; });
    std::printf("  word %u -> %u (%.3f), %u (%.3f), %u (%.3f)\n", w, sims[0].second,
                sims[0].first, sims[1].second, sims[1].first, sims[2].second,
                sims[2].first);
  }
  return 0;
}
