// Line-protocol codec: parse/format round trips and the error taxonomy
// mapping clients key their retry logic on.
#include "serve/daemon/protocol.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <string>

#include "core/error.hpp"

namespace hpnn::serve {
namespace {

TEST(ProtocolTest, ParsesInferWithAllFields) {
  const ProtoRequest r = parse_request("INFER alice 7 99 3");
  EXPECT_EQ(r.kind, ProtoRequest::Kind::kInfer);
  EXPECT_EQ(r.tenant, "alice");
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.seed, 99u);
  EXPECT_EQ(r.n, 3);
}

TEST(ProtocolTest, ParsesControlVerbs) {
  EXPECT_EQ(parse_request("STATS").kind, ProtoRequest::Kind::kStats);
  EXPECT_EQ(parse_request("DRAIN").kind, ProtoRequest::Kind::kDrain);
  EXPECT_EQ(parse_request("QUIT").kind, ProtoRequest::Kind::kQuit);

  const ProtoRequest reload = parse_request("RELOAD slo-us=9000 max-batch=4");
  EXPECT_EQ(reload.kind, ProtoRequest::Kind::kReload);
  ASSERT_EQ(reload.options.size(), 2u);
  EXPECT_EQ(reload.options[0].first, "slo-us");
  EXPECT_EQ(reload.options[0].second, "9000");
  EXPECT_EQ(reload.options[1].first, "max-batch");
  EXPECT_EQ(reload.options[1].second, "4");
}

TEST(ProtocolTest, RejectsMalformedLines) {
  EXPECT_THROW((void)parse_request(""), Error);
  EXPECT_THROW((void)parse_request("NOPE"), Error);
  EXPECT_THROW((void)parse_request("INFER alice 7 99"), Error);      // short
  EXPECT_THROW((void)parse_request("INFER alice 7 99 0"), Error);    // n < 1
  EXPECT_THROW((void)parse_request("INFER alice x 99 1"), Error);    // id NaN
  EXPECT_THROW((void)parse_request("INFER alice 7 99 2x"), Error);   // junk
  EXPECT_THROW((void)parse_request("RELOAD slo-us"), Error);         // no '='
  EXPECT_THROW((void)parse_request("RELOAD =9000"), Error);          // no key
}

TEST(ProtocolTest, ReloadAppliesKnownKeysAndRejectsOthers) {
  DaemonConfig base;
  base.batcher.max_batch_rows = 8;
  const DaemonConfig reloaded = apply_reload(
      parse_request("RELOAD max-batch=4 slo-us=9000 tenant-qps=2.5"), base);
  EXPECT_EQ(reloaded.batcher.max_batch_rows, 4);
  EXPECT_EQ(reloaded.batcher.slo_p99_us, 9'000u);
  EXPECT_DOUBLE_EQ(reloaded.admission.per_tenant.tokens_per_sec, 2.5);
  EXPECT_EQ(base.batcher.max_batch_rows, 8);  // applied to a copy

  // The retired linger window is an unknown key, not a silent no-op.
  try {
    (void)apply_reload(parse_request("RELOAD max-linger-us=2000"), base);
    FAIL() << "max-linger-us was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown reload option"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)apply_reload(parse_request("RELOAD max-batch=4x"), base),
               Error);
  EXPECT_THROW(
      (void)apply_reload(parse_request("RELOAD queue-capacity=-5"), base),
      Error);
  EXPECT_THROW((void)apply_reload(parse_request("RELOAD tenant-qps=fast"),
                                  base),
               Error);
}

TEST(ProtocolTest, FormatsReplyWithAccounting) {
  Reply reply;
  reply.classes = {3, 1};
  reply.replica = 2;
  reply.attempts = 1;
  reply.queue_wait_us = 400;
  reply.latency_us = 1'600;
  reply.batch_id = 5;
  reply.batch_rows = 8;
  reply.degraded = false;
  reply.session_fingerprint = "abcdef0123456789deadbeef";

  EXPECT_EQ(format_reply(7, reply),
            "OK 7 classes=3,1 replica=2 attempts=1 queue_wait_us=400 "
            "latency_us=1600 batch=5/8 degraded=0 session=abcdef012345");
}

TEST(ProtocolTest, MapsTheServingErrorTaxonomyToStableKinds) {
  const auto line = [](std::exception_ptr e) {
    return format_exception(9, std::move(e));
  };
  EXPECT_EQ(line(std::make_exception_ptr(
                AdmissionRejectedError("shedding", 2'500))),
            "ERR 9 admission_rejected retry_after_us=2500 shedding");
  EXPECT_EQ(line(std::make_exception_ptr(QueueFullError("full", 64, 64))),
            "ERR 9 queue_full retry_after_us=0 full");
  EXPECT_EQ(line(std::make_exception_ptr(
                DeviceUnavailableError("no replica", 800))),
            "ERR 9 unavailable retry_after_us=800 no replica");
  EXPECT_EQ(line(std::make_exception_ptr(Error("boom"))),
            "ERR 9 error retry_after_us=0 boom");
}

TEST(ProtocolTest, FormatsStatsSnapshot) {
  DaemonStats stats;
  stats.queue_depth = 3;
  stats.submitted = 10;
  stats.completed = 6;
  stats.failed = 1;
  stats.expired = 0;
  stats.batches = 2;
  stats.admission.admitted = 10;
  stats.admission.shed_watermark = 4;
  stats.admission.shed_rate = 1;
  stats.sessions.hits = 8;
  stats.sessions.misses = 2;
  stats.sessions.revocations = 1;

  EXPECT_EQ(format_stats(stats),
            "STATS depth=3 submitted=10 completed=6 failed=1 expired=0 "
            "batches=2 admitted=10 shed_watermark=4 shed_rate=1 "
            "session_hits=8 session_misses=2 session_revocations=1");
}

}  // namespace
}  // namespace hpnn::serve
