// A SIGPROF sampling profiler, loaded into an unmodified program with
// LD_PRELOAD:
//
//   SAMPLER_OUT=run.samples LD_PRELOAD=libumsampler.so ./program args...
//   python3 tools/sampler/fold.py run.samples
//
// While the program runs, setitimer(ITIMER_PROF) asks for SIGPROF once per
// millisecond of the process's CPU time (the kernel delivers it at its tick,
// about 250 Hz on the guests measured so far), and the handler stores the
// interrupted stack with backtrace() into a buffer reserved at load. At exit
// the samples, one line of return addresses each, and a copy of
// /proc/self/maps are written to SAMPLER_OUT; fold.py maps the addresses to
// objects and functions offline. Nothing is written while the program runs,
// so the handler only copies addresses.
//
// Without SAMPLER_OUT the library does nothing. Samples beyond the buffer
// (kCapacity, 400 s of CPU time at 250 Hz) are counted and dropped.
#include <execinfo.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr int kDepth = 64;
constexpr std::size_t kCapacity = 100000;
constexpr long kIntervalUs = 1000;

struct Sample {
  int depth;
  void* frames[kDepth];
};

Sample* g_samples = nullptr;
std::atomic<std::size_t> g_taken{0};
std::atomic<std::size_t> g_dropped{0};
const char* g_out = nullptr;

/// The interrupted instruction, from the signal's context: frame 0 of the
/// sample. backtrace() starts inside this handler, so its frames up to and
/// including the interrupted one are replaced by it.
void* interrupted_pc(void* context) {
#if defined(__x86_64__)
  return reinterpret_cast<void*>(static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
#else
  (void)context;
  return nullptr;
#endif
}

void on_sigprof(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  const std::size_t slot = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kCapacity) {
    g_taken.fetch_sub(1, std::memory_order_relaxed);
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample& sample = g_samples[slot];
  void* raw[kDepth + 4];
  const int n = backtrace(raw, kDepth + 4);
  void* pc = interrupted_pc(context);
  // Frames after the interrupted one are return addresses of its callers.
  int from = n;
  for (int i = 0; i < n; ++i) {
    if (raw[i] == pc) {
      from = i + 1;
      break;
    }
  }
  if (from == n) from = n < 2 ? n : 2;  // no match: drop the handler and the trampoline
  sample.frames[0] = pc;
  int depth = 1;
  for (int i = from; i < n && depth < kDepth; ++i) sample.frames[depth++] = raw[i];
  sample.depth = depth;
  errno = saved_errno;
}

void write_out() {
  if (g_out == nullptr) return;
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  std::signal(SIGPROF, SIG_IGN);  // a tick already pending must not write a slot now
  std::FILE* out = std::fopen(g_out, "w");
  if (out == nullptr) {
    std::perror("sampler: SAMPLER_OUT");
    return;
  }
  const std::size_t taken = g_taken.load();
  std::fprintf(out, "# umsampler samples=%zu dropped=%zu\n", taken, g_dropped.load());
  for (std::size_t s = 0; s < taken; ++s) {
    std::fputc('S', out);
    for (int i = 0; i < g_samples[s].depth; ++i) std::fprintf(out, " %p", g_samples[s].frames[i]);
    std::fputc('\n', out);
  }
  std::fputs("# maps\n", out);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) {
      std::fputs("M ", out);
      std::fputs(line, out);
    }
    std::fclose(maps);
  }
  std::fclose(out);
}

__attribute__((constructor)) void start_sampling() {
  g_out = std::getenv("SAMPLER_OUT");
  if (g_out == nullptr || *g_out == '\0') {
    g_out = nullptr;
    return;
  }
  g_samples = static_cast<Sample*>(std::calloc(kCapacity, sizeof(Sample)));
  if (g_samples == nullptr) {
    std::fputs("sampler: cannot reserve the sample buffer\n", stderr);
    g_out = nullptr;
    return;
  }
  // The first backtrace() loads the unwinder, which allocates: do it here,
  // not in the handler.
  void* warm[4];
  backtrace(warm, 4);
  struct sigaction action{};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);
  itimerval timer{};
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
  std::atexit(write_out);
}

}  // namespace
