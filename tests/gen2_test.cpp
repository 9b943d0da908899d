// Tests for pet::gen2 — the EPC C1G2 MAC substrate: Select/session/flag
// semantics, the Q-adaptation policies, the impaired slot engine, the full
// inventory loop, and the Gen2PrefixChannel's clean-channel equivalence
// with the ideal ExactChannel reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "channel/exact_channel.hpp"
#include "gen2/channel.hpp"
#include "gen2/gen2.hpp"
#include "gen2/inventory.hpp"
#include "gen2/mac.hpp"
#include "gen2/qpolicy.hpp"
#include "protocols/identification.hpp"
#include "rng/hash_family.hpp"
#include "rng/prng.hpp"
#include "runtime/trial_runner.hpp"
#include "tags/population.hpp"

namespace pet::gen2 {
namespace {

std::vector<TagId> make_tags(std::uint64_t n, std::uint64_t seed = 0xdecaf) {
  const auto pop = tags::TagPopulation::generate(n, seed);
  return {pop.ids().begin(), pop.ids().end()};
}

BitCode code_of(std::uint64_t value, unsigned width) {
  return BitCode(value, width);
}

// ---------------------------------------------------------------- Select

TEST(SelectMask, EmptyMaskMatchesEveryEpc) {
  const SelectMask select;
  EXPECT_TRUE(select.matches(code_of(0, 32)));
  EXPECT_TRUE(select.matches(code_of(0xffffffffULL, 32)));
}

TEST(SelectMask, MatchesExactlyThePrefix) {
  SelectMask select;
  select.mask = code_of(0b101, 3);
  EXPECT_TRUE(select.matches(code_of(0b1010'0000'0000'0000ULL, 16)));
  EXPECT_FALSE(select.matches(code_of(0b1000'0000'0000'0000ULL, 16)));
  EXPECT_FALSE(select.matches(code_of(0, 16)));
}

TEST(SelectMask, MaskWiderThanEpcMatchesNothing) {
  SelectMask select;
  select.mask = code_of(0, 17);
  EXPECT_FALSE(select.matches(code_of(0, 16)));
}

// -------------------------------------------------------------- sessions

TEST(Gen2TagState, FlagsStartAtAInEverySession) {
  Gen2Tag tag(code_of(5, 32));
  const SessionTimers timers;
  for (const Session s :
       {Session::kS0, Session::kS1, Session::kS2, Session::kS3}) {
    EXPECT_EQ(tag.flag(s, 0, timers), InvFlag::kA) << to_string(s);
  }
}

TEST(Gen2TagState, S2PersistsAndPowerCycleResetsOnlyS0AndSl) {
  Gen2Tag tag(code_of(5, 32));
  const SessionTimers timers;
  EXPECT_TRUE(tag.set_flag(Session::kS0, InvFlag::kB, 10));
  EXPECT_TRUE(tag.set_flag(Session::kS2, InvFlag::kB, 10));
  tag.set_selected(true);
  tag.power_cycle();
  EXPECT_EQ(tag.flag(Session::kS0, 11, timers), InvFlag::kA);
  EXPECT_EQ(tag.flag(Session::kS2, 1u << 20, timers), InvFlag::kB);
  EXPECT_FALSE(tag.selected());
}

TEST(Gen2TagState, S1DecaysBackToAAfterTheTimer) {
  Gen2Tag tag(code_of(5, 32));
  SessionTimers timers;
  timers.s1_decay_slots = 100;
  tag.set_flag(Session::kS1, InvFlag::kB, 50);
  bool decayed = true;
  EXPECT_EQ(tag.flag(Session::kS1, 149, timers, &decayed), InvFlag::kB);
  EXPECT_FALSE(decayed);
  EXPECT_EQ(tag.flag(Session::kS1, 150, timers, &decayed), InvFlag::kA);
  EXPECT_TRUE(decayed);
  // The decay is sticky: later reads see A without reporting a new decay.
  EXPECT_EQ(tag.flag(Session::kS1, 151, timers, &decayed), InvFlag::kA);
  EXPECT_FALSE(decayed);
}

TEST(Gen2TagState, S1WithNoDecayTimerPersists) {
  Gen2Tag tag(code_of(5, 32));
  SessionTimers timers;
  timers.s1_decay_slots = SessionTimers::kNoDecay;
  tag.set_flag(Session::kS1, InvFlag::kB, 0);
  EXPECT_EQ(tag.flag(Session::kS1, ~std::uint64_t{0} - 1, timers),
            InvFlag::kB);
}

TEST(Gen2TagState, SetFlagReportsFlipsOnly) {
  Gen2Tag tag(code_of(5, 32));
  EXPECT_TRUE(tag.set_flag(Session::kS2, InvFlag::kB, 0));
  EXPECT_FALSE(tag.set_flag(Session::kS2, InvFlag::kB, 1));
  EXPECT_TRUE(tag.set_flag(Session::kS2, InvFlag::kA, 2));
}

// ------------------------------------------------------------- Q policies

TEST(QPolicy, FloatingQRaisesOnCollisionsLowersOnIdles) {
  QPolicyConfig config;
  config.q0 = 4;
  config.c = 0.5;
  QPolicy policy(config);
  EXPECT_EQ(policy.q(), 4u);
  // One collision: Qfp 4.5, still rounds to... 5 on ties-away; the
  // standard's rule reframes as soon as round(Qfp) moves.
  const bool adjust = policy.on_slot(SlotOutcome::kCollision);
  EXPECT_EQ(policy.q(), 5u);
  EXPECT_TRUE(adjust);
  // Singletons leave Qfp alone.
  EXPECT_FALSE(policy.on_slot(SlotOutcome::kSingleton));
  EXPECT_EQ(policy.q(), 5u);
  // Idles walk it back down.
  policy.on_slot(SlotOutcome::kIdle);
  EXPECT_FALSE(policy.on_slot(SlotOutcome::kIdle));
  EXPECT_EQ(policy.q(), 4u);
}

TEST(QPolicy, FloatingQClampsAtTheConfiguredBounds) {
  QPolicyConfig config;
  config.q0 = 0;
  config.c = 0.5;
  QPolicy policy(config);
  for (int i = 0; i < 10; ++i) policy.on_slot(SlotOutcome::kIdle);
  EXPECT_EQ(policy.q(), 0u);
  for (int i = 0; i < 100; ++i) policy.on_slot(SlotOutcome::kCollision);
  EXPECT_EQ(policy.q(), 15u);
}

TEST(QPolicy, DfaBacklogUsesSchouteEstimate) {
  QPolicyConfig config;
  config.kind = QPolicyKind::kDfaBacklog;
  config.q0 = 4;
  QPolicy policy(config);
  // DFA never asks for mid-frame adjustment.
  EXPECT_FALSE(policy.on_slot(SlotOutcome::kCollision));
  // 100 collisions: backlog ~ 239, Q = round(log2 239) = 8.
  policy.on_frame_end(100);
  EXPECT_EQ(policy.q(), 8u);
  // A collision-free frame steps down instead of jumping to zero.
  policy.on_frame_end(0);
  EXPECT_EQ(policy.q(), 7u);
}

// ------------------------------------------------------------------ MAC

TEST(Gen2Mac, CleanSlotsClassifyByResponderCount) {
  Gen2Mac mac(Gen2MacConfig{});
  EXPECT_EQ(mac.run_slot(0, 22, 16).outcome, SlotOutcome::kIdle);
  EXPECT_EQ(mac.run_slot(1, 22, 16).outcome, SlotOutcome::kSingleton);
  EXPECT_EQ(mac.run_slot(7, 22, 16).outcome, SlotOutcome::kCollision);
  EXPECT_EQ(mac.ledger().idle_slots, 1u);
  EXPECT_EQ(mac.ledger().singleton_slots, 1u);
  EXPECT_EQ(mac.ledger().collision_slots, 1u);
}

TEST(Gen2Mac, LedgerChargesCommandAndReplyBits) {
  Gen2Mac mac(Gen2MacConfig{});
  mac.run_slot(0, 22, 16);  // idle: no uplink bits
  mac.run_slot(3, 4, 16);   // collision: all three tags transmitted
  EXPECT_EQ(mac.ledger().reader_bits, 26u);
  EXPECT_EQ(mac.ledger().tag_bits, 48u);
  EXPECT_GT(mac.ledger().airtime_us, 0);
  mac.broadcast(77);  // Select: downlink only, no slot
  EXPECT_EQ(mac.ledger().reader_bits, 103u);
  EXPECT_EQ(mac.ledger().total_slots(), 2u);
  mac.acknowledge(18, 128);  // ACK + EPC read rides on the counted slot
  EXPECT_EQ(mac.ledger().reader_bits, 121u);
  EXPECT_EQ(mac.ledger().tag_bits, 176u);
  EXPECT_EQ(mac.ledger().total_slots(), 2u);
}

TEST(Gen2Mac, CertainCaptureDecodesEveryCollision) {
  Gen2MacConfig config;
  config.impairments.capture.capture_prob = 1.0;
  config.impairments.capture.extra_decay = 1.0;
  Gen2Mac mac(config);
  for (int i = 0; i < 50; ++i) {
    const Gen2SlotResult slot = mac.run_slot(4, 22, 16);
    EXPECT_EQ(slot.outcome, SlotOutcome::kSingleton);
    EXPECT_TRUE(slot.captured);
  }
  EXPECT_EQ(mac.ledger().collision_slots, 0u);
}

TEST(Gen2Mac, CaptureProbabilityDecaysWithResponderCount) {
  Gen2MacConfig config;
  config.impairments.capture.capture_prob = 0.8;
  config.impairments.capture.extra_decay = 0.5;
  Gen2Mac pairs(config), crowds(config);
  int captured_pairs = 0, captured_crowds = 0;
  for (int i = 0; i < 2000; ++i) {
    if (pairs.run_slot(2, 4, 16).captured) ++captured_pairs;
    if (crowds.run_slot(6, 4, 16).captured) ++captured_crowds;
  }
  // P(capture | 2) = 0.8; P(capture | 6) = 0.8 * 0.5^4 = 0.05.
  EXPECT_NEAR(captured_pairs / 2000.0, 0.8, 0.05);
  EXPECT_NEAR(captured_crowds / 2000.0, 0.05, 0.03);
}

TEST(Gen2Mac, EnablingCaptureDoesNotPerturbLossReplay) {
  // Loss and capture draw from independent derived streams, so switching
  // capture on must leave the loss pattern — and thus every singleton /
  // idle verdict — untouched.
  Gen2MacConfig plain;
  plain.impairments.seed = 77;
  plain.impairments.reply_loss_prob = 0.3;
  Gen2MacConfig with_capture = plain;
  with_capture.impairments.capture.capture_prob = 1.0;
  Gen2Mac a(plain), b(with_capture);
  for (int i = 0; i < 500; ++i) {
    const Gen2SlotResult sa = a.run_slot(1, 22, 16);
    const Gen2SlotResult sb = b.run_slot(1, 22, 16);
    EXPECT_EQ(sa.outcome, sb.outcome) << "slot " << i;
    EXPECT_EQ(sa.survivors, sb.survivors) << "slot " << i;
  }
}

TEST(Gen2Mac, NoiseFloorsIdleSlotsToCollisions) {
  Gen2MacConfig config;
  config.impairments.false_busy_prob = 1.0;
  Gen2Mac mac(config);
  const Gen2SlotResult slot = mac.run_slot(0, 22, 16);
  EXPECT_EQ(slot.outcome, SlotOutcome::kCollision);
  EXPECT_TRUE(slot.false_busy);
}

// ------------------------------------------------------------- inventory

TEST(Gen2Inventory, IdentifiesEveryTagUnderBothQPolicies) {
  for (const QPolicyKind kind :
       {QPolicyKind::kQAdjust, QPolicyKind::kDfaBacklog}) {
    Gen2Mac mac(Gen2MacConfig{});
    Gen2InventoryConfig config;
    config.qpolicy.kind = kind;
    std::vector<Gen2Tag> tags;
    for (std::uint64_t i = 0; i < 300; ++i) {
      tags.emplace_back(
          rng::uniform_code(rng::HashKind::kMix64, 9, i, 32));
    }
    Gen2Inventory inventory(mac, config);
    const Gen2InventoryResult round = inventory.run(tags, 42);
    EXPECT_EQ(round.identified, 300u) << to_string(kind);
    EXPECT_EQ(round.singleton_slots, 300u) << to_string(kind);
    EXPECT_FALSE(round.q_trajectory.empty());
    EXPECT_EQ(round.slots, round.ledger.total_slots());
  }
}

TEST(Gen2Inventory, SessionFlagsMakeTheSecondPassEmpty) {
  Gen2Mac mac(Gen2MacConfig{});
  std::vector<Gen2Tag> tags;
  for (std::uint64_t i = 0; i < 64; ++i) {
    tags.emplace_back(
        rng::uniform_code(rng::HashKind::kMix64, 9, i, 32));
  }
  Gen2Inventory inventory(mac, Gen2InventoryConfig{});  // S2, target A
  EXPECT_EQ(inventory.run(tags, 1).identified, 64u);
  // Every tag now sits at B in S2; a second A-targeted round drains dry.
  EXPECT_EQ(inventory.run(tags, 2).identified, 0u);
}

TEST(Gen2Inventory, S1DecayRestoresTagsForALaterPass) {
  Gen2Mac mac(Gen2MacConfig{});
  Gen2InventoryConfig config;
  config.session = Session::kS1;
  // Long enough to survive the first inventory's slots, short enough for
  // an idle gap to expire.
  config.timers.s1_decay_slots = 4096;
  std::vector<Gen2Tag> tags;
  for (std::uint64_t i = 0; i < 32; ++i) {
    tags.emplace_back(
        rng::uniform_code(rng::HashKind::kMix64, 9, i, 32));
  }
  Gen2Inventory inventory(mac, config);
  EXPECT_EQ(inventory.run(tags, 1).identified, 32u);
  // Immediately after, the B flags still hold: the second pass drains dry.
  EXPECT_EQ(inventory.run(tags, 2).identified, 0u);
  // Leave the reader idling past the S1 persistence window; the flags
  // decay back to A and a third pass finds the whole population again.
  for (int i = 0; i < 4096; ++i) mac.run_slot(0, 4, 0);
  const Gen2InventoryResult again = inventory.run(tags, 3);
  EXPECT_EQ(again.identified, 32u);
  EXPECT_EQ(again.session_decays, 32u);
}

TEST(Gen2Inventory, SelectScopesTheRoundToTheMaskedSubtree) {
  Gen2Mac mac(Gen2MacConfig{});
  Gen2InventoryConfig config;
  config.use_select = true;
  config.select.mask = code_of(1, 1);  // EPCs starting with '1'
  std::vector<Gen2Tag> tags;
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const BitCode code = rng::uniform_code(rng::HashKind::kMix64, 9, i, 32);
    expected += (code.value() >> 31) & 1u;
    tags.emplace_back(code);
  }
  Gen2Inventory inventory(mac, config);
  EXPECT_EQ(inventory.run(tags, 3).identified, expected);
}

TEST(Gen2Identify, Gen2DfsaIdentifiesTheWholePopulation) {
  proto::Gen2DfsaOptions options;
  const auto result = proto::identify_gen2(2000, options, 5);
  EXPECT_EQ(result.identified, 2000u);
  EXPECT_GT(result.frames, 0u);
  EXPECT_GT(result.ledger.airtime_us, 0);
}

// ------------------------------------------- channel: clean equivalence

TEST(Gen2Channel, ProbeVerdictsMatchExactChannelOnACleanLink) {
  const auto ids = make_tags(512);
  chan::ExactChannelConfig exact_config;
  chan::ExactChannel exact(ids, exact_config);
  Gen2PrefixChannel over_gen2(ids, Gen2ChannelConfig{});

  for (std::uint64_t round = 0; round < 32; ++round) {
    chan::RoundConfig config;
    config.path = rng::uniform_code(rng::HashKind::kMix64, 31, round, 32);
    exact.begin_round(config);
    over_gen2.begin_round(config);
    for (unsigned len = 0; len <= 32; ++len) {
      EXPECT_EQ(exact.query_prefix(len), over_gen2.query_prefix(len))
          << "round " << round << " len " << len;
    }
  }
  // Same probes, same slot counts — the Selects ride the downlink only.
  EXPECT_EQ(exact.ledger().total_slots(), over_gen2.ledger().total_slots());
  EXPECT_EQ(exact.ledger().idle_slots, over_gen2.ledger().idle_slots);
}

TEST(Gen2Channel, RangeQueriesMatchExactChannelOnACleanLink) {
  const auto ids = make_tags(512);
  chan::ExactChannel exact(ids, chan::ExactChannelConfig{});
  Gen2PrefixChannel over_gen2(ids, Gen2ChannelConfig{});
  for (std::uint64_t round = 0; round < 16; ++round) {
    chan::RangeFrameConfig frame;
    frame.seed = rng::derive_seed(7, round);
    frame.frame_size = 4096;
    exact.begin_range_frame(frame);
    over_gen2.begin_range_frame(frame);
    for (const std::uint64_t bound : {1ull, 17ull, 256ull, 4095ull}) {
      EXPECT_EQ(exact.query_range(bound), over_gen2.query_range(bound))
          << "round " << round << " bound " << bound;
    }
  }
}

TEST(Gen2Channel, FrameOutcomesMatchExactChannelOnACleanLink) {
  const auto ids = make_tags(512);
  chan::ExactChannel exact(ids, chan::ExactChannelConfig{});
  Gen2PrefixChannel over_gen2(ids, Gen2ChannelConfig{});
  for (const bool geometric : {false, true}) {
    chan::FrameConfig frame;
    frame.seed = geometric ? 11u : 12u;
    frame.frame_size = 64;
    frame.persistence = 0.7;
    frame.geometric = geometric;
    EXPECT_EQ(exact.run_frame(frame), over_gen2.run_frame(frame))
        << "geometric " << geometric;
  }
}

TEST(Gen2Channel, CertainCaptureLeavesProbeVerdictsUnchanged) {
  const auto ids = make_tags(512);
  Gen2ChannelConfig impaired_config;
  impaired_config.impairments.capture.capture_prob = 1.0;
  Gen2PrefixChannel clean(ids, Gen2ChannelConfig{});
  Gen2PrefixChannel impaired(ids, impaired_config);
  for (std::uint64_t round = 0; round < 16; ++round) {
    chan::RoundConfig config;
    config.path = rng::uniform_code(rng::HashKind::kMix64, 13, round, 32);
    clean.begin_round(config);
    impaired.begin_round(config);
    for (unsigned len = 0; len <= 32; ++len) {
      EXPECT_EQ(clean.query_prefix(len), impaired.query_prefix(len));
    }
  }
}

TEST(Gen2Channel, TruncateShrinksUplinkCostOfDeepProbes) {
  const auto ids = make_tags(512);
  Gen2ChannelConfig truncating;  // default: truncate = true
  Gen2ChannelConfig full;
  full.truncate = false;
  Gen2PrefixChannel cheap(ids, truncating);
  Gen2PrefixChannel dear(ids, full);
  chan::RoundConfig config;
  // Walk the path straight to one tag's manufactured code so the deep
  // probe has at least one responder.
  config.path = rng::uniform_code(truncating.hash,
                                  truncating.manufacturing_seed, ids.front(),
                                  truncating.tree_height);
  cheap.begin_round(config);
  dear.begin_round(config);
  // Probe at depth 0: every tag replies; truncated replies carry the full
  // 32-bit remainder vs a 16-bit RN16, so here truncation costs *more* —
  // the win appears past depth 16.
  cheap.query_prefix(0);
  dear.query_prefix(0);
  EXPECT_EQ(cheap.ledger().tag_bits, 512u * 32u);
  EXPECT_EQ(dear.ledger().tag_bits, 512u * 16u);
  const std::uint64_t cheap_before = cheap.ledger().tag_bits;
  const std::uint64_t dear_before = dear.ledger().tag_bits;
  EXPECT_TRUE(cheap.query_prefix(31));
  EXPECT_TRUE(dear.query_prefix(31));
  // Depth-31 probes reply with max(1, 32 - 31) = 1 bit when truncated
  // versus a full RN16: 16x cheaper per responder.
  const std::uint64_t cheap_delta = cheap.ledger().tag_bits - cheap_before;
  const std::uint64_t dear_delta = dear.ledger().tag_bits - dear_before;
  EXPECT_GE(cheap_delta, 1u);
  EXPECT_EQ(dear_delta, 16u * cheap_delta);
}

TEST(Gen2Channel, RejectsRehashRounds) {
  const auto ids = make_tags(16);
  Gen2PrefixChannel channel(ids, Gen2ChannelConfig{});
  chan::RoundConfig config;
  config.path = BitCode(0, 32);
  config.tags_rehash = true;
  EXPECT_THROW(channel.begin_round(config), PreconditionError);
}

// ------------------------------------------------------- thread identity

TEST(Gen2Channel, TrialSweepIsByteIdenticalAcrossThreadCounts) {
  const auto ids = make_tags(256);
  auto sweep = [&](unsigned threads) {
    runtime::TrialRunner runner(threads);
    std::vector<std::uint64_t> busy_counts(8, 0);
    runner.run<std::uint64_t>(
        8,
        [&](std::uint64_t trial) {
          Gen2ChannelConfig config;
          config.manufacturing_seed = rng::derive_seed(99, 2 * trial);
          config.impairments.capture.capture_prob = 0.5;
          config.impairments.reply_loss_prob = 0.05;
          config.impairments.seed = rng::derive_seed(99, 500 + trial);
          Gen2PrefixChannel channel(ids, config);
          std::uint64_t busy = 0;
          for (std::uint64_t round = 0; round < 16; ++round) {
            chan::RoundConfig round_config;
            round_config.path = rng::uniform_code(
                rng::HashKind::kMix64, rng::derive_seed(99, 2 * trial + 1),
                round, 32);
            channel.begin_round(round_config);
            for (unsigned len = 0; len <= 32; ++len) {
              busy += channel.query_prefix(len) ? 1u : 0u;
            }
          }
          return busy;
        },
        [&](std::uint64_t trial, std::uint64_t busy) {
          busy_counts[trial] = busy;
        },
        "gen2-threads");
    return busy_counts;
  };
  const auto serial = sweep(1);
  EXPECT_EQ(serial, sweep(2));
  EXPECT_EQ(serial, sweep(8));
}

}  // namespace
}  // namespace pet::gen2
