/* Fork-server runtime (native ABI v4) of a subprocess artifact.
 *
 * Compiled once per artifact cache directory into an object that every
 * subprocess artifact links; the artifact's generated source defines
 * the two symbols declared below.  The dune rule next to this file
 * embeds it as Forkserver_runtime.source. */

#include <stddef.h>
#include <stdlib.h>

/* Defined by the generated pipeline: the planes memfd size, and the
 * pipeline driver run in place on the mapped planes. */
extern const size_t kf_zygote_bytes;
void kf_zygote_run(double* planes);

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

// Fork-server runtime (ABI v4).  kfused starts this program with fd 0
// = its socket, fd 1 = the planes memfd and fd 2 = a stderr memfd.  It
// maps the planes once, then serves one request per run: fork a fresh
// run-child that applies the request's rlimits and runs the pipeline
// on the shared planes, watch it with the request's wall budget, and
// reply with its raw wait status.  This process never runs an OpenMP
// region itself (a libgomp team does not survive fork).
//
// An idle server saves the next run an exec and a cold start, but it
// is a live process: after each reply it waits for the next request
// only as long as that request's keep-alive says (0: not at all), then
// exits.  The plan's owner sets the keep-alive, so a stream keeps its
// server between frames and a plan nobody drives holds no process.
//
// Wire format (the client is Supervisor.Forkserver, which mirrors the
// constants below): native-endian int64 words over a SOCK_STREAM
// socketpair.
//   request: magic, wall budget (us, -1 none), SIGTERM->SIGKILL grace
//            (us), RLIMIT_CPU (s), RLIMIT_AS (bytes), RLIMIT_FSIZE
//            (bytes) (-1 unlimited), chaos misbehaviour, keep-alive
//            after the reply (us, -1 until the next request or EOF)
//   reply:   kind (0 exited, 1 killed by a signal, 2 could not fork),
//            exit code / C signal number / errno, watchdog fired,
//            watchdog escalated, run-child wall time (ns), reserved

#define KF_MAGIC 0x4b465a34LL /* "KFZ4" */
enum { KF_REQ_WORDS = 8, KF_REP_WORDS = 6 };

static int64_t kf_now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

// Soft = hard, so the run-child cannot raise a limit back.
static void kf_limit(int resource, int64_t lim) {
  struct rlimit rl;
  if (lim < 0) return;
  rl.rlim_cur = (rlim_t)lim;
  rl.rlim_max = (rlim_t)lim;
  (void)setrlimit(resource, &rl);
}

static int kf_xfer(int fd, void* buf, size_t len, int out) {
  char* p = (char*)buf;
  while (len > 0) {
    ssize_t n = out ? send(fd, p, len, MSG_NOSIGNAL) : read(fd, p, len);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return -1;
    p += n;
    len -= (size_t)n;
  }
  return 0;
}

// The run-child: a fresh process per run, with the request's rlimits.
// It is the one place the exec.* chaos misbehaviours are carried out
// (1 SIGSEGV, 2 hang, 3 exhaust a 64 MiB RLIMIT_AS and abort like
// kf_malloc).
static void kf_child(int sock, const int64_t* req, double* planes) {
  sigset_t none;
  close(sock);
  sigemptyset(&none);
  (void)sigprocmask(SIG_SETMASK, &none, NULL);
  kf_limit(RLIMIT_CPU, req[3]);
  kf_limit(RLIMIT_AS, req[4]);
  kf_limit(RLIMIT_FSIZE, req[5]);
  switch (req[6]) {
  case 1:
    raise(SIGSEGV);
    _exit(0);
  case 2:
    for (;;) pause();
  case 3:
    kf_limit(RLIMIT_AS, 64LL * 1024 * 1024);
    for (;;)
      if (malloc(4 * 1024 * 1024) == NULL) abort();
  default:
    break;
  }
  kf_zygote_run(planes);
  _exit(0);
}

// Reap the run-child under the watchdog: SIGTERM when the wall budget
// (req[1] us, < 0 none) is spent, SIGKILL req[2] us later.  SIGCHLD is
// blocked, so sigtimedwait sleeps until the child changes state or the
// next watchdog edge is due.
static int kf_wait(pid_t pid, const int64_t* req, int64_t t0, int64_t* fired,
                   int64_t* escalated, int* status) {
  sigset_t chld;
  int64_t term_at = 0;
  sigemptyset(&chld);
  sigaddset(&chld, SIGCHLD);
  for (;;) {
    pid_t r = waitpid(pid, status, WNOHANG);
    if (r == pid) return 0;
    if (r < 0 && errno != EINTR) return -1;
    int64_t now = kf_now_ns(), wake = -1;
    if (req[1] >= 0) {
      if (!*fired && now >= t0 + req[1] * 1000) {
        (void)kill(pid, SIGTERM);
        *fired = 1;
        term_at = now;
      }
      if (*fired && !*escalated && now >= term_at + req[2] * 1000) {
        (void)kill(pid, SIGKILL);
        *escalated = 1;
      }
      if (!*fired) wake = t0 + req[1] * 1000;
      else if (!*escalated) wake = term_at + req[2] * 1000;
    }
    if (wake < 0) {
      (void)sigwaitinfo(&chld, NULL);
    } else {
      int64_t d = wake > now ? wake - now : 0;
      struct timespec ts = { (time_t)(d / 1000000000), (long)(d % 1000000000) };
      (void)sigtimedwait(&chld, NULL, &ts);
    }
  }
}

int main(void) {
  int sock = dup(0), planes_fd = dup(1), nul = open("/dev/null", O_RDWR);
  struct stat st;
  sigset_t chld;
  double* planes;
  if (sock < 0 || planes_fd < 0 || nul < 0 || dup2(nul, 0) < 0 || dup2(nul, 1) < 0) {
    perror("kfuse fork-server: descriptors");
    return 2;
  }
  close(nul);
  if (fstat(planes_fd, &st) != 0 || (size_t)st.st_size != kf_zygote_bytes) {
    fprintf(stderr, "kfuse fork-server: the planes memfd is not %zu bytes\n", kf_zygote_bytes);
    return 2;
  }
  planes = (double*)mmap(NULL, kf_zygote_bytes, PROT_READ | PROT_WRITE, MAP_SHARED, planes_fd, 0);
  if (planes == MAP_FAILED) {
    perror("kfuse fork-server: mmap");
    return 2;
  }
  close(planes_fd);
  // Own process group: kfused's backstop kills the server together
  // with a run-child it may have left behind.
  (void)setpgid(0, 0);
  (void)signal(SIGCHLD, SIG_DFL);
  sigemptyset(&chld);
  sigaddset(&chld, SIGCHLD);
  (void)sigprocmask(SIG_BLOCK, &chld, NULL);
  // The first request is written right after the spawn: wait for it
  // (or for EOF) without a timeout.
  int idle_ms = -1;
  for (;;) {
    int64_t req[KF_REQ_WORDS], rep[KF_REP_WORDS];
    struct pollfd pfd = { sock, POLLIN, 0 };
    int ready = poll(&pfd, 1, idle_ms);
    if (ready < 0 && errno == EINTR) continue;
    // Idle, released (EOF) or a vanished peer: a clean exit 0, which
    // kfused reads as "respawn me", never as a failed run.
    if (ready <= 0 || kf_xfer(sock, req, sizeof req, 0) != 0) return 0;
    if (req[0] != KF_MAGIC) {
      fprintf(stderr, "kfuse fork-server: bad request\n");
      return 2;
    }
    int64_t keep_ms = req[7] < 0 ? -1 : (req[7] + 999) / 1000;
    idle_ms = keep_ms > INT32_MAX ? INT32_MAX : (int)keep_ms;
    memset(rep, 0, sizeof rep);
    // stderr holds this run's bytes only.
    (void)ftruncate(2, 0);
    (void)lseek(2, 0, SEEK_SET);
    int64_t t0 = kf_now_ns();
    pid_t pid = fork();
    if (pid == 0) kf_child(sock, req, planes);
    int status = 0;
    if (pid < 0 || kf_wait(pid, req, t0, &rep[2], &rep[3], &status) != 0) {
      rep[0] = 2;
      rep[1] = errno;
      fprintf(stderr, "kfuse fork-server: %s: %s\n", pid < 0 ? "fork" : "waitpid", strerror(errno));
    } else if (WIFSIGNALED(status)) {
      rep[0] = 1;
      rep[1] = WTERMSIG(status);
    } else {
      rep[1] = WEXITSTATUS(status);
    }
    rep[4] = kf_now_ns() - t0;
    if (kf_xfer(sock, rep, sizeof rep, 1) != 0) return 0;
  }
}
