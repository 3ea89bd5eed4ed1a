// Copy budget of the camera→TV photo path (DESIGN.md §8.4): a photo is copied
// only where its bytes change form. This binary replaces the global operator
// new with a counting one and pins how many large heap blocks (16 KiB or more,
// so only photo-sized buffers count) one 30 kB photo costs over the real Fig. 5
// pipeline: BT camera → runtime A → UMTP → runtime B → UPnP SOAP → TV. A
// reintroduced whole-photo copy raises the count and fails this test by name.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "bluetooth/bip.hpp"
#include "bluetooth/mapper.hpp"
#include "core/umiddle.hpp"
#include "upnp/devices.hpp"
#include "upnp/mapper.hpp"

namespace {

constexpr std::size_t kLarge = 16 * 1024;
bool g_counting = false;
std::size_t g_large = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting && n >= kLarge) ++g_large;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The replaceable allocation functions. The aligned overloads keep the
// library's versions, which no photo buffer uses.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace umiddle {
namespace {

using sim::seconds;

/// Large allocations per photo, each where the bytes change form: the OBEX
/// push's copy of the camera's current image, the PUT packet, the sink's
/// reassembly buffer (grown twice) and decoded body, the UMTP frame and its
/// decoded payload, the base64 text, the SOAP envelope, the HTTP request,
/// the device's reassembly buffer (grown twice) and request body, the parsed
/// argument text, and the TV's decoded image. 23 before the hand-offs moved.
constexpr double kLargeAllocsPerPhoto = 15.0;

/// Figure 5: the camera on runtime A's piconet, the TV on runtime B's LAN.
struct PhotoPath {
  sim::Scheduler sched;
  net::Network net{sched, 1};
  std::unique_ptr<bt::BluetoothMedium> piconet;
  std::unique_ptr<bt::BipCamera> camera;
  std::unique_ptr<upnp::MediaRendererTv> tv;
  core::UsdlLibrary library;
  std::unique_ptr<core::Runtime> a;
  std::unique_ptr<core::Runtime> b;

  PhotoPath() {
    const net::SegmentId lan = net.add_segment(net::SegmentSpec{});
    for (const char* h : {"living-room", "media-cabinet", "tv-host"}) {
      EXPECT_TRUE(net.add_host(h).ok());
      EXPECT_TRUE(net.attach(h, lan).ok());
    }
    piconet = std::make_unique<bt::BluetoothMedium>(net);
    camera = std::make_unique<bt::BipCamera>(*piconet, "Camera");
    EXPECT_TRUE(camera->power_on().ok());
    tv = std::make_unique<upnp::MediaRendererTv>(net, "tv-host", 8000, "TV");
    EXPECT_TRUE(tv->start().ok());
    bt::register_bt_usdl(library);
    upnp::register_upnp_usdl(library);
    a = std::make_unique<core::Runtime>(sched, net, "living-room");
    a->add_mapper(std::make_unique<bt::BtMapper>(*piconet, library));
    b = std::make_unique<core::Runtime>(sched, net, "media-cabinet");
    b->add_mapper(std::make_unique<upnp::UpnpMapper>(library));
    EXPECT_TRUE(a->start().ok());
    EXPECT_TRUE(b->start().ok());
    sched.run_for(seconds(4));
    auto cameras = a->directory().lookup(core::Query().digital_output(MimeType::of("image/*")));
    EXPECT_EQ(cameras.size(), 1u);
    if (cameras.empty()) return;
    EXPECT_TRUE(a->transport()
                    .connect(core::PortRef{cameras[0].id, "image-out"},
                             core::Query().digital_input(MimeType::of("image/*")).platform("upnp"))
                    .ok());
  }

  /// Shoot one photo and run until the TV has rendered it.
  bool photo(Bytes image, const std::string& name) {
    const std::size_t before = tv->rendered().size();
    camera->shutter(std::move(image), name);
    const sim::TimePoint deadline = sched.now() + seconds(30);
    while (tv->rendered().size() == before && sched.now() < deadline && sched.step()) {
    }
    return tv->rendered().size() == before + 1 && tv->rendered().back().name == name;
  }
};

TEST(CopyBudgetTest, CameraToTvPhotoStaysWithinItsLargeAllocationBudget) {
  PhotoPath w;
  // The warm-up photo brings the UMTP link and the TV's HTTP session up.
  ASSERT_TRUE(w.photo(Bytes(30000, 0xD8), "warmup.jpg"));

  constexpr int kPhotos = 8;
  std::size_t large = 0;
  for (int i = 0; i < kPhotos; ++i) {
    Bytes image(30000 + static_cast<std::size_t>(i) * 64);
    for (std::size_t j = 0; j < image.size(); ++j) {
      image[j] = static_cast<std::uint8_t>(j * 131 + static_cast<std::size_t>(i));
    }
    const std::string name = "photo-" + std::to_string(i) + ".jpg";
    g_large = 0;
    g_counting = true;
    const bool rendered = w.photo(std::move(image), name);
    g_counting = false;
    ASSERT_TRUE(rendered) << name;
    EXPECT_EQ(w.tv->rendered().back().bytes, 30000 + static_cast<std::size_t>(i) * 64);
    large += g_large;
  }
  const double per_photo = static_cast<double>(large) / kPhotos;
  RecordProperty("large_allocs_per_photo", std::to_string(per_photo));
  EXPECT_LE(per_photo, kLargeAllocsPerPhoto)
      << "a camera→TV photo made " << per_photo << " heap allocations of 16 KiB or more; "
      << "the budget is " << kLargeAllocsPerPhoto
      << ". A new whole-photo copy on the path? (DESIGN.md §8.4)";
}

}  // namespace
}  // namespace umiddle
