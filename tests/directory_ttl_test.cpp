// Soft-state directory maintenance: remote entries are kept alive by periodic
// re-announcements and expired when their node goes silent (crash — no bye).
#include <gtest/gtest.h>

#include "core/umiddle.hpp"

namespace umiddle::core {
namespace {

using sim::seconds;

struct World {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  net::SegmentId lan;

  World() {
    lan = net.add_segment(net::SegmentSpec{});
    for (const char* h : {"a", "b", "ghost"}) {
      EXPECT_TRUE(net.add_host(h).ok());
      EXPECT_TRUE(net.attach(h, lan).ok());
    }
  }

  /// Forge one announce datagram from a fake node that will never refresh.
  void forge_announce(const RuntimeConfig& config) {
    TranslatorProfile p;
    p.id = TranslatorId((999ull << 32) | 1);
    p.node = NodeId(999);
    p.name = "Ghost device";
    p.platform = "upnp";
    p.shape = make_source_shape("out", MimeType::of("image/jpeg"));
    const std::string adv = announce_text(p, NodeInfo{NodeId(999), "ghost", 7701});
    ASSERT_TRUE(net.join_group("ghost", config.group).ok());
    auto ghost = net.udp_bind({"ghost", config.directory_port}, [](auto, auto&) {});
    ASSERT_TRUE(ghost.ok());
    ASSERT_TRUE(net.udp_multicast(ghost.value(), net.group(config.group), config.directory_port,
                                  make_payload(to_bytes(adv)))
                    .ok());
  }
};

TEST(DirectoryTtlTest, SilentNodeExpiresAfterMaxAge) {
  World w;
  Runtime runtime(w.sched, w.net, "b");
  runtime.directory().set_max_age(seconds(9));
  ASSERT_TRUE(runtime.start().ok());
  w.sched.run_for(seconds(1));

  int unmapped = 0;
  LambdaListener listener(nullptr, [&](const TranslatorProfile& p) {
    EXPECT_EQ(p.name, "Ghost device");
    ++unmapped;
  });
  runtime.directory().add_directory_listener(&listener);

  w.forge_announce(runtime.config());
  w.sched.run_for(seconds(1));
  ASSERT_EQ(runtime.directory().lookup(Query().platform("upnp")).size(), 1u);

  // Within max_age: still present.
  w.sched.run_for(seconds(5));
  EXPECT_EQ(runtime.directory().lookup(Query().platform("upnp")).size(), 1u);
  // Past max_age with no refresh: expired exactly once.
  w.sched.run_for(seconds(10));
  EXPECT_EQ(runtime.directory().lookup(Query().platform("upnp")).size(), 0u);
  EXPECT_EQ(unmapped, 1);
  runtime.directory().remove_directory_listener(&listener);
}

TEST(DirectoryTtlTest, RefreshedEntriesNeverExpire) {
  World w;
  Runtime ra(w.sched, w.net, "a");
  Runtime rb(w.sched, w.net, "b");
  ra.directory().set_max_age(seconds(6));
  rb.directory().set_max_age(seconds(6));
  ASSERT_TRUE(ra.start().ok());
  ASSERT_TRUE(rb.start().ok());

  auto id = ra.map(std::make_unique<LambdaDevice>(
                       "Live device", make_source_shape("out", MimeType::of("image/jpeg"))))
                .take();
  w.sched.run_for(seconds(1));
  ASSERT_NE(rb.directory().profile(id), nullptr);

  // A keeps re-announcing every max_age/3, so B never expires the entry.
  w.sched.run_for(seconds(60));
  EXPECT_NE(rb.directory().profile(id), nullptr);
}

TEST(DirectoryTtlTest, LocalTranslatorsNeverExpire) {
  World w;
  Runtime runtime(w.sched, w.net, "a");
  runtime.directory().set_max_age(seconds(3));
  ASSERT_TRUE(runtime.start().ok());
  auto id = runtime.map(std::make_unique<LambdaDevice>(
                            "Mine", make_source_shape("out", MimeType::of("a/b"))))
                .take();
  w.sched.run_for(seconds(30));
  EXPECT_NE(runtime.directory().profile(id), nullptr);
}

TEST(DirectoryTtlTest, QueryPathUnbindsWhenSourceNodeCrashes) {
  // The end-to-end consequence: a dynamic path bound to a crashed node's
  // translator unbinds once the directory expires it.
  World w;
  Runtime runtime(w.sched, w.net, "b");
  runtime.directory().set_max_age(seconds(9));
  ASSERT_TRUE(runtime.start().ok());
  auto sink = std::make_unique<CollectorDevice>(
      "Sink", make_sink_shape("in", MimeType::of("image/jpeg")));
  auto sink_id = runtime.map(std::move(sink)).take();
  (void)sink_id;
  w.sched.run_for(seconds(1));
  w.forge_announce(runtime.config());
  w.sched.run_for(seconds(1));

  auto ghosts = runtime.directory().lookup(Query().platform("upnp"));
  ASSERT_EQ(ghosts.size(), 1u);
  auto path = runtime.transport().connect(PortRef{ghosts[0].id, "out"},
                                          PortRef{sink_id, "in"});
  // The ghost's node is unreachable, but connect() is optimistic about remote
  // hosting (the CONNECT frame would be dropped); what matters here is that
  // the local bookkeeping is consistent after expiry.
  (void)path;
  w.sched.run_for(seconds(15));
  EXPECT_EQ(runtime.directory().lookup(Query().platform("upnp")).size(), 0u);
}

}  // namespace
}  // namespace umiddle::core
