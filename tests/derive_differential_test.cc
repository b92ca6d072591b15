// Differential test of the deriver's sparse batch path: a compiled
// deriver driven through PrepareBatch() (per-event program masks expanded
// into multi-word definition bitsets, interpreter fallbacks folded in)
// must emit exactly the started/finished stream — symbol, ts, te and
// aggregate payload — of the tree-interpreter deriver driven one event at
// a time. Definition and program counts straddle the 64-bit word size,
// and a mid-stream Checkpoint/Restore into a fresh deriver carries open
// situations above index 63 across the cut.
#include <algorithm>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/serde.h"
#include "derive/deriver.h"
#include "expr/expression.h"

namespace tpstream {
namespace {

constexpr int kEvents = 2000;

/// x: int random walk in [0, 100); y: double random walk in [0, 1);
/// b: sticky bool. Walks keep predicates true for runs of events, so
/// situations open, grow aggregates and close.
std::vector<Event> MakeStream(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> step(-6, 6);
  std::uniform_real_distribution<double> ystep(-0.08, 0.08);
  std::bernoulli_distribution flip(0.15);
  int64_t x = 50;
  double y = 0.5;
  bool b = false;
  std::vector<Event> events;
  events.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    x = std::clamp<int64_t>(x + step(rng), 0, 99);
    y = std::clamp(y + ystep(rng), 0.0, 0.999);
    if (flip(rng)) b = !b;
    events.emplace_back(Tuple{Value(x), Value(y), Value(b)}, i + 1);
  }
  return events;
}

/// Predicate of program `p`; distinct `p` give distinct fingerprints.
ExprPtr ProgramPredicate(int p) {
  switch (p % 3) {
    case 0:
      return Gt(FieldRef(0, "x"), Literal(static_cast<int64_t>(p)));
    case 1:
      return Lt(FieldRef(1, "y"), Literal(0.01 * p + 0.005));
    default:
      return And(FieldRef(2, "b"),
                 Ge(FieldRef(0, "x"), Literal(static_cast<int64_t>(p))));
  }
}

/// Same truth as ProgramPredicate(p) on every event (the extra disjunct
/// reads a field past the 16-bit operand range, which is null), but it
/// cannot compile, so its definition keeps the interpreter.
ExprPtr UncompilablePredicate(int p) {
  return Or(ProgramPredicate(p),
            Gt(FieldRef(70000, "far"), Literal(static_cast<int64_t>(0))));
}

/// `num_defs` definitions over `num_programs` distinct compiled
/// predicates (definition i uses program i % num_programs). With
/// `fallbacks`, every 7th definition and those at word boundaries 64 and
/// 127 use an uncompilable predicate instead.
std::vector<SituationDefinition> MakeDefinitions(int num_defs,
                                                 int num_programs,
                                                 bool fallbacks) {
  std::vector<SituationDefinition> defs;
  for (int i = 0; i < num_defs; ++i) {
    const int p = i % num_programs;
    const bool interpreted =
        fallbacks && (i % 7 == 3 || i == 64 || i == 127);
    std::vector<AggregateSpec> aggs;
    if (i % 3 == 1) {
      aggs = {{AggKind::kCount, -1, "n"}, {AggKind::kFirst, 0, "fx"}};
    } else if (i % 3 == 2) {
      aggs = {{AggKind::kSum, 1, "sy"}, {AggKind::kLast, 0, "lx"}};
    }
    DurationConstraint tau;
    switch (i % 5) {
      case 0:
        tau.min = 3;
        break;
      case 1:
        tau.max = 12;  // never announced early
        break;
      case 2:
        tau.min = 2;
        tau.max = 40;
        break;
      default:
        break;
    }
    defs.emplace_back("S" + std::to_string(i),
                      interpreted ? UncompilablePredicate(p)
                                  : ProgramPredicate(p),
                      std::move(aggs), tau);
  }
  return defs;
}

DeriveOptions Compiled() {
  DeriveOptions options;
  options.compiled_predicates = true;
  return options;
}

std::string Render(size_t event, const char* kind, const SymbolSituation& s) {
  std::string out = "event " + std::to_string(event) + " " + kind + " sym " +
                    std::to_string(s.symbol) + " [" +
                    std::to_string(s.situation.ts) + ", " +
                    std::to_string(s.situation.te) + ") {";
  for (const Value& v : s.situation.payload) {
    out += std::to_string(static_cast<int>(v.type())) + ":" + v.ToString() +
           ",";
  }
  return out + "}";
}

void Record(size_t event, const Deriver::Update& update,
            std::vector<std::string>* out) {
  for (const SymbolSituation& s : update.started) {
    out->push_back(Render(event, "started", s));
  }
  for (const SymbolSituation& s : update.finished) {
    out->push_back(Render(event, "finished", s));
  }
}

std::vector<std::string> InterpretedStream(
    const std::vector<SituationDefinition>& defs,
    const std::vector<Event>& events) {
  Deriver deriver(defs, /*announce_starts=*/true);
  std::vector<std::string> out;
  for (size_t i = 0; i < events.size(); ++i) {
    Record(i, deriver.Process(events[i]), &out);
  }
  return out;
}

/// Compiled deriver fed in prepared batches of `batch_size`; at the first
/// batch boundary at or past the middle of the stream its state is
/// checkpointed and restored into a fresh deriver, which finishes the
/// stream. `*open_high_at_cut` receives whether any situation above
/// index 63 was ongoing at the cut.
std::vector<std::string> BatchedStream(
    const std::vector<SituationDefinition>& defs,
    const std::vector<Event>& events, size_t batch_size,
    bool* open_high_at_cut) {
  const DeriveOptions options = Compiled();
  auto deriver =
      std::make_unique<Deriver>(defs, /*announce_starts=*/true, nullptr,
                                options);
  std::vector<std::string> out;
  bool cut = false;
  *open_high_at_cut = false;
  for (size_t begin = 0; begin < events.size(); begin += batch_size) {
    if (!cut && begin >= events.size() / 2) {
      cut = true;
      for (int i = 64; i < deriver->num_definitions(); ++i) {
        if (deriver->IsOngoing(i)) *open_high_at_cut = true;
      }
      ckpt::Writer w;
      deriver->Checkpoint(w);
      auto restored = std::make_unique<Deriver>(
          defs, /*announce_starts=*/true, nullptr, options);
      ckpt::Reader r(w.buffer());
      const Status status = restored->Restore(r);
      EXPECT_TRUE(status.ok()) << status.ToString();
      deriver = std::move(restored);
    }
    const size_t end = std::min(events.size(), begin + batch_size);
    deriver->PrepareBatch(
        std::span<const Event>(events.data() + begin, end - begin));
    for (size_t i = begin; i < end; ++i) {
      Record(i, deriver->Process(events[i]), &out);
    }
  }
  return out;
}

struct Shape {
  int defs;
  int programs;
};

TEST(DeriveDifferentialTest, SparseBatchPathMatchesInterpreter) {
  const std::vector<Event> events = MakeStream(/*seed=*/13);
  const std::vector<Shape> shapes = {
      {1, 1},   {63, 1},   {63, 63},  {64, 64},  {65, 1},   {65, 64},
      {65, 65}, {130, 1},  {130, 64}, {130, 65}, {130, 70},
  };
  for (const Shape& shape : shapes) {
    for (const bool fallbacks : {false, true}) {
      SCOPED_TRACE("defs=" + std::to_string(shape.defs) +
                   " programs=" + std::to_string(shape.programs) +
                   " fallbacks=" + std::to_string(fallbacks));
      const std::vector<SituationDefinition> defs =
          MakeDefinitions(shape.defs, shape.programs, fallbacks);
      {
        Deriver probe(defs, true, nullptr, Compiled());
        if (!fallbacks) {
          ASSERT_EQ(probe.num_compiled_programs(), shape.programs);
        }
      }
      const std::vector<std::string> expected =
          InterpretedStream(defs, events);
      ASSERT_FALSE(expected.empty());
      if (shape.defs == 130) {
        // Definitions at the word boundaries take part in the stream.
        for (const int sym : {63, 64, 127, 128}) {
          const std::string tag = " sym " + std::to_string(sym) + " [";
          bool seen = false;
          for (const std::string& line : expected) {
            seen = seen || line.find(tag) != std::string::npos;
          }
          EXPECT_TRUE(seen) << "no situations for definition " << sym;
        }
      }
      for (const size_t batch_size : {1, 63, 64, 65, 1000}) {
        SCOPED_TRACE("batch=" + std::to_string(batch_size));
        bool open_high_at_cut = false;
        const std::vector<std::string> got =
            BatchedStream(defs, events, batch_size, &open_high_at_cut);
        if (shape.defs == 130) {
          EXPECT_TRUE(open_high_at_cut);
        }
        ASSERT_EQ(got.size(), expected.size());
        for (size_t k = 0; k < got.size(); ++k) {
          ASSERT_EQ(got[k], expected[k]) << "at record " << k;
        }
      }
    }
  }
}

// A batch the caller abandons part-way (pushes other events instead)
// falls back to per-event evaluation without losing open situations
// above the first mask word.
TEST(DeriveDifferentialTest, AbandonedBatchFallsBackToPerEventEvaluation) {
  const std::vector<Event> events = MakeStream(/*seed=*/29);
  const std::vector<SituationDefinition> defs =
      MakeDefinitions(130, 70, /*fallbacks=*/true);
  const std::vector<std::string> expected = InterpretedStream(defs, events);

  Deriver deriver(defs, /*announce_starts=*/true, nullptr, Compiled());
  std::vector<std::string> got;
  for (size_t begin = 0; begin < events.size(); begin += 200) {
    const size_t end = std::min(events.size(), begin + 200);
    deriver.PrepareBatch(
        std::span<const Event>(events.data() + begin, end - begin));
    for (size_t i = begin; i < end; ++i) {
      if (i == begin + 100) {
        // Same contents, different address: the batch is dropped.
        const Event copy = events[i];
        Record(i, deriver.Process(copy), &got);
        continue;
      }
      Record(i, deriver.Process(events[i]), &got);
    }
  }
  ASSERT_EQ(got.size(), expected.size());
  for (size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k], expected[k]) << "at record " << k;
  }
}

}  // namespace
}  // namespace tpstream
