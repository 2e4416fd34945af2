/* Loader stubs for the native execution backend.
 *
 * The generated C for every pipeline is wrapped behind one fixed entry
 * point (ABI v2):
 *
 *   void kfuse_entry(const double** ins, double** outs, const double* params);
 *
 * so a single dlopen/dlsym/call stub covers every pipeline shape — no
 * ctypes/libffi dependency, no per-signature code.  The OCaml side
 * passes `float array` values, which are already packed 64-bit doubles,
 * so marshalling copies bits without rounding: the interpreter and the
 * compiled plan see identical inputs.
 *
 * No OCaml allocation happens between reading the arrays and writing
 * the results, so raw Field/Double_field access is GC-safe; the entry
 * call itself runs in a blocking section so other runtime threads (the
 * kfused worker pool) keep making progress during a long kernel.
 */

#define _GNU_SOURCE /* memfd_create, F_ADD_SEALS */

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

/* The one process spawn of the exec supervisor (Supervisor.Child).
 *
 * OCaml 5 forbids Unix.fork once other domains exist — and both kfused
 * (its fusion-search Pool) and the test runner hold domain pools — so
 * the fork happens here, entirely in C: between fork and exec the
 * child runs only async-signal-safe libc calls (fcntl, dup2, setrlimit,
 * sigprocmask, execvp), never the OCaml runtime.  Every OCaml value is
 * extracted into plain C memory *before* forking.
 *
 * Arguments:
 *   vargv     : string array        — argv; argv[0] resolved via PATH
 *   vfds      : fd * fd * fd        — stdin / stdout / stderr for the child
 *   vlimits   : int array [3]       — RLIMIT_CPU (s), RLIMIT_AS (bytes),
 *                                     RLIMIT_FSIZE (bytes); -1 = unlimited.
 *                                     Soft and hard are both set, so the
 *                                     child cannot raise them back.
 *
 * The child holds exactly fds 0-2: every other descriptor is closed
 * before the exec, whoever opened it and however it is flagged.
 * Returns the child pid; raises Failure when fork itself fails.  A
 * failed setrlimit is deliberately non-fatal in the child: the parent's
 * watchdog still covers it. */

static void kfuse_child_rlimit(int resource, long lim)
{
  struct rlimit rl;
  if (lim < 0) return;
  rl.rlim_cur = (rlim_t)lim;
  rl.rlim_max = (rlim_t)lim;
  (void)setrlimit(resource, &rl);
}

value kfuse_spawn(value vargv, value vfds, value vlimits)
{
  CAMLparam3(vargv, vfds, vlimits);
  mlsize_t nargs = Wosize_val(vargv);
  char **argv = calloc(nargs + 1, sizeof(char *));
  if (argv == NULL) caml_failwith("kfuse_spawn: out of memory");
  for (mlsize_t i = 0; i < nargs; i++) {
    argv[i] = strdup(String_val(Field(vargv, i)));
    if (argv[i] == NULL) {
      for (mlsize_t j = 0; j < i; j++) free(argv[j]);
      free(argv);
      caml_failwith("kfuse_spawn: out of memory");
    }
  }
  int fds[3] = { Int_val(Field(vfds, 0)), Int_val(Field(vfds, 1)), Int_val(Field(vfds, 2)) };
  long cpu_s = Long_val(Field(vlimits, 0));
  long mem_bytes = Long_val(Field(vlimits, 1));
  long fsize_bytes = Long_val(Field(vlimits, 2));

  pid_t pid = fork();
  if (pid == 0) {
    /* Child.  The parent may have OCaml signal handlers (kfused's
     * SIGTERM drain, the runtime's SIGSEGV stack-guard handler), ignored
     * signals and a thread signal mask; the mask and the ignores survive
     * exec, so reset them: the watchdog's SIGTERM must work as for a
     * fresh process. */
    sigset_t empty;
    sigemptyset(&empty);
    (void)sigprocmask(SIG_SETMASK, &empty, NULL);
    (void)signal(SIGTERM, SIG_DFL);
    (void)signal(SIGINT, SIG_DFL);
    (void)signal(SIGSEGV, SIG_DFL);
    (void)signal(SIGABRT, SIG_DFL);
    (void)signal(SIGPIPE, SIG_DFL);
    /* Lift the three fds above 2 first, so no dup2 below overwrites one
     * still to be moved and each dup2 makes a real copy: a copy never
     * carries close-on-exec, even when its source (every fd the
     * supervisor opens) does. */
    for (int i = 0; i < 3; i++)
      if (fds[i] < 3 && (fds[i] = fcntl(fds[i], F_DUPFD_CLOEXEC, 3)) < 0) _exit(127);
    for (int i = 0; i < 3; i++)
      if (dup2(fds[i], i) < 0) _exit(127);
#ifdef SYS_close_range
    (void)syscall(SYS_close_range, 3U, ~0U, 0U);
#endif
    kfuse_child_rlimit(RLIMIT_CPU, cpu_s);
    kfuse_child_rlimit(RLIMIT_AS, mem_bytes);
    kfuse_child_rlimit(RLIMIT_FSIZE, fsize_bytes);
    execvp(argv[0], argv);
    _exit(127);
  }

  int saved_errno = errno;
  for (mlsize_t i = 0; i < nargs; i++) free(argv[i]);
  free(argv);
  if (pid < 0) {
    char msg[256];
    snprintf(msg, sizeof msg, "fork: %s", strerror(saved_errno));
    caml_failwith(msg);
  }
  CAMLreturn(Val_long(pid));
}

typedef void (*kfuse_entry_fn)(const double **, double **, const double *);

value kfuse_dl_open(value vpath)
{
  CAMLparam1(vpath);
  void *h = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (h == NULL) {
    const char *err = dlerror();
    caml_failwith(err ? err : "dlopen failed");
  }
  /* An artifact built with -fopenmp drags libgomp in.  The host does not
   * link it, so a later dlclose would unmap libgomp while its parked
   * worker threads still run its code (SIGSEGV on multi-core hosts).
   * Take a never-dropped reference, only if the artifact loaded it. */
  (void)dlopen("libgomp.so.1", RTLD_NOW | RTLD_NOLOAD | RTLD_NODELETE);
  CAMLreturn(caml_copy_nativeint((intnat)h));
}

value kfuse_dl_sym(value vhandle, value vname)
{
  CAMLparam2(vhandle, vname);
  void *h = (void *)Nativeint_val(vhandle);
  /* Clear any stale error so a NULL result is unambiguous. */
  (void)dlerror();
  void *sym = dlsym(h, String_val(vname));
  if (sym == NULL) {
    const char *err = dlerror();
    caml_failwith(err ? err : "dlsym: symbol not found");
  }
  CAMLreturn(caml_copy_nativeint((intnat)sym));
}

value kfuse_dl_close(value vhandle)
{
  CAMLparam1(vhandle);
  dlclose((void *)Nativeint_val(vhandle));
  CAMLreturn(Val_unit);
}

static mlsize_t float_array_length(value v)
{
  return Wosize_val(v) / Double_wosize;
}

/* Float arrays above this length (in doubles = words) are guaranteed to
 * live on the major heap (allocations over Max_young_wosize = 256 words
 * never touch the minor heap, so no promotion can move them) and above
 * the compactor's size-class pools (<= 128 words), so their data
 * pointer is stable for the whole call even while the blocking section
 * lets the GC run on other threads.  Those arrays are handed to the
 * kernel in place — this is the per-frame streaming path, where the
 * malloc + copy of multi-megabyte buffers used to dominate the kernel
 * itself.  Smaller arrays keep the conservative copy. */
#define KFUSE_STABLE_LEN 4096

/* Free only the buffers this call allocated (owned[i] != 0). */
static void free_owned(double **bufs, const unsigned char *owned, mlsize_t n)
{
  if (bufs == NULL) return;
  for (mlsize_t i = 0; i < n; i++)
    if (owned != NULL && owned[i]) free(bufs[i]);
  free(bufs);
}

value kfuse_dl_call(value vfn, value vins, value vouts, value vparams)
{
  CAMLparam4(vfn, vins, vouts, vparams);
  kfuse_entry_fn fn = (kfuse_entry_fn)Nativeint_val(vfn);
  mlsize_t nin = Wosize_val(vins);
  mlsize_t nout = Wosize_val(vouts);
  mlsize_t npar = float_array_length(vparams);

  double **ins = calloc(nin ? nin : 1, sizeof(double *));
  double **outs = calloc(nout ? nout : 1, sizeof(double *));
  unsigned char *in_owned = calloc(nin ? nin : 1, 1);
  unsigned char *out_owned = calloc(nout ? nout : 1, 1);
  double *par = malloc((npar ? npar : 1) * sizeof(double));
  int oom = (ins == NULL || outs == NULL || in_owned == NULL || out_owned == NULL
             || par == NULL);

  for (mlsize_t i = 0; !oom && i < nin; i++) {
    value a = Field(vins, i);
    mlsize_t len = float_array_length(a);
    if (len > KFUSE_STABLE_LEN) {
      ins[i] = (double *)Op_val(a);
      continue;
    }
    ins[i] = malloc((len ? len : 1) * sizeof(double));
    if (ins[i] == NULL) { oom = 1; break; }
    in_owned[i] = 1;
    for (mlsize_t j = 0; j < len; j++)
      ins[i][j] = Double_field(a, j);
  }
  for (mlsize_t i = 0; !oom && i < nout; i++) {
    value a = Field(vouts, i);
    mlsize_t len = float_array_length(a);
    if (len > KFUSE_STABLE_LEN) {
      outs[i] = (double *)Op_val(a);
      continue;
    }
    outs[i] = calloc(len ? len : 1, sizeof(double));
    if (outs[i] == NULL) { oom = 1; break; }
    out_owned[i] = 1;
  }
  if (oom) {
    free_owned(ins, in_owned, nin);
    free_owned(outs, out_owned, nout);
    free(in_owned);
    free(out_owned);
    free(par);
    caml_failwith("kfuse_dl_call: out of memory marshalling buffers");
  }
  for (mlsize_t j = 0; j < npar; j++)
    par[j] = Double_field(vparams, j);

  caml_enter_blocking_section();
  fn((const double **)ins, outs, par);
  caml_leave_blocking_section();

  for (mlsize_t i = 0; i < nout; i++) {
    if (!out_owned[i]) continue; /* kernel already wrote in place */
    value a = Field(vouts, i);
    mlsize_t len = float_array_length(a);
    for (mlsize_t j = 0; j < len; j++)
      Store_double_field(a, j, outs[i][j]);
  }

  free_owned(ins, in_owned, nin);
  free_owned(outs, out_owned, nout);
  free(in_owned);
  free(out_owned);
  free(par);
  CAMLreturn(Val_unit);
}

/* {1 Fork-server plumbing}
 *
 * A pinned subprocess plan keeps its planes in a memfd that kfused
 * creates and sizes, and that only the fork-server maps: kfused moves
 * pixels with pread/pwrite straight between the memfd and OCaml float
 * arrays, so the planes never count against kfused's resident set and
 * no file is ever named on disk.
 *
 * kfuse_memfd(name, size, seal): a CLOEXEC memfd of [size] bytes.
 * With [seal], its size is sealed (no grow, no shrink, no further
 * seals): a run-child writing through the mapping cannot enlarge it. */
value kfuse_memfd(value vname, value vsize, value vseal)
{
  CAMLparam3(vname, vsize, vseal);
  int fd = memfd_create(String_val(vname), MFD_CLOEXEC | MFD_ALLOW_SEALING);
  if (fd < 0) caml_uerror("memfd_create", vname);
  if (ftruncate(fd, (off_t)Long_val(vsize)) != 0
      || (Bool_val(vseal)
          && fcntl(fd, F_ADD_SEALS, F_SEAL_GROW | F_SEAL_SHRINK | F_SEAL_SEAL) != 0)) {
    int e = errno;
    close(fd);
    caml_unix_error(e, "memfd_create", vname);
  }
  CAMLreturn(Val_int(fd));
}

/* pread/pwrite of a whole float array at a byte offset.  Large arrays
 * are moved in a blocking section straight from/to the array's data
 * (stable, see KFUSE_STABLE_LEN); small ones stay under the runtime
 * lock, where nothing can move them. */
static void kfuse_plane_io(int write_side, value vfd, value voff, value varr)
{
  int fd = Int_val(vfd);
  off_t off = (off_t)Long_val(voff);
  char *p = (char *)Op_val(varr);
  size_t left = float_array_length(varr) * sizeof(double);
  int release = float_array_length(varr) > KFUSE_STABLE_LEN;
  int err = 0;
  if (release) caml_enter_blocking_section();
  while (left > 0) {
    ssize_t n = write_side ? pwrite(fd, p, left, off) : pread(fd, p, left, off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) { err = n < 0 ? errno : EIO; break; }
    p += n;
    off += n;
    left -= (size_t)n;
  }
  if (release) caml_leave_blocking_section();
  if (err) caml_unix_error(err, write_side ? "pwrite" : "pread", Nothing);
}

value kfuse_plane_write(value vfd, value voff, value varr)
{
  CAMLparam3(vfd, voff, varr);
  kfuse_plane_io(1, vfd, voff, varr);
  CAMLreturn(Val_unit);
}

value kfuse_plane_read(value vfd, value voff, value varr)
{
  CAMLparam3(vfd, voff, varr);
  kfuse_plane_io(0, vfd, voff, varr);
  CAMLreturn(Val_unit);
}

/* Write a whole request with MSG_NOSIGNAL: a fork-server that exited
 * (idle, or dead) is an EPIPE for the caller to classify, never a
 * SIGPIPE for the process. */
value kfuse_send_all(value vfd, value vbuf)
{
  CAMLparam2(vfd, vbuf);
  char buf[256];
  size_t len = caml_string_length(vbuf);
  if (len > sizeof buf) caml_invalid_argument("kfuse_send_all: message too long");
  memcpy(buf, Bytes_val(vbuf), len);
  int fd = Int_val(vfd);
  size_t done = 0;
  int err = 0;
  caml_enter_blocking_section();
  while (done < len) {
    ssize_t n = send(fd, buf + done, len - done, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) { err = errno; break; }
    done += (size_t)n;
  }
  caml_leave_blocking_section();
  if (err) caml_unix_error(err, "send", Nothing);
  CAMLreturn(Val_unit);
}

/* A C signal number as OCaml's [Sys.sig*] numbering, which is what
 * [Unix.WSIGNALED] carries.  The runtime exports the conversion but
 * declares it only under CAML_INTERNALS. */
CAMLextern int caml_rev_convert_signal_number(int);

value kfuse_ocaml_signal(value vsig)
{
  return Val_int(caml_rev_convert_signal_number(Int_val(vsig)));
}
