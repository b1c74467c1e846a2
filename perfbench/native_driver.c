/* Native serving driver for the serve-mix workload.

   The benchmark emits each served entry with Codegen.to_c as
   `double bench_entry<k>(double)` in its own translation unit and
   compiles this file beside them with plain `cc -O2 -mfma` (the
   compiler's default floating-point contraction is left on).

   usage: native_driver INPUT OUTPUT ITERATIONS

   INPUT (little-endian, written by the benchmark):
     int64  entries (= 3), batch size n, pool size k, patterns p
     double decode[p]          pattern -> input double
     uint16 pool[k][n]         input patterns
   Iteration i evaluates entry i % entries on pool batch i % k, the
   same schedule as the OCaml serving loop.  Only the evaluation loop
   is timed (CLOCK_MONOTONIC).

   OUTPUT:
     int64  ns[ITERATIONS]     wall time of each batch
     double first[entries][p]  first result seen for each pattern
     int64  seen[entries][p]   evaluations of each pattern
     int64  mismatches         evaluations whose bits differ from the
                               first result for the same pattern
   The benchmark checks every `first` result against the oracle; an
   evaluation counts as correct when it equals a correct first result
   bit for bit. */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define ENTRIES 3

extern double bench_entry0(double);
extern double bench_entry1(double);
extern double bench_entry2(double);

static void die(const char *what) {
  fprintf(stderr, "native_driver: %s\n", what);
  exit(2);
}

static void read_exact(FILE *f, void *buf, size_t size, size_t count) {
  if (fread(buf, size, count, f) != count) die("short read");
}

static void write_exact(FILE *f, const void *buf, size_t size, size_t count) {
  if (fwrite(buf, size, count, f) != count) die("short write");
}

static int64_t now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* One loop per entry so each call is direct, as in a libm consumer. */
static void eval_batch(int e, const uint16_t *src, const double *decode,
                       double *dst, int64_t n) {
  switch (e) {
  case 0:
    for (int64_t j = 0; j < n; j++) dst[j] = bench_entry0(decode[src[j]]);
    break;
  case 1:
    for (int64_t j = 0; j < n; j++) dst[j] = bench_entry1(decode[src[j]]);
    break;
  default:
    for (int64_t j = 0; j < n; j++) dst[j] = bench_entry2(decode[src[j]]);
    break;
  }
}

int main(int argc, char **argv) {
  if (argc != 4) die("usage: native_driver INPUT OUTPUT ITERATIONS");
  int64_t iters = atoll(argv[3]);
  FILE *in = fopen(argv[1], "rb");
  if (!in) die("cannot open input");
  int64_t hdr[4];
  read_exact(in, hdr, sizeof(int64_t), 4);
  int64_t entries = hdr[0], n = hdr[1], k = hdr[2], p = hdr[3];
  if (entries != ENTRIES || n <= 0 || k <= 0 || p <= 0 || p > 65536 ||
      iters <= 0)
    die("bad header or iteration count");
  double *decode = malloc(sizeof(double) * p);
  uint16_t *pool = malloc(sizeof(uint16_t) * n * k);
  double *dst = malloc(sizeof(double) * n);
  int64_t *ns = malloc(sizeof(int64_t) * iters);
  double *first = calloc(ENTRIES * p, sizeof(double));
  int64_t *seen = calloc(ENTRIES * p, sizeof(int64_t));
  if (!decode || !pool || !dst || !ns || !first || !seen) die("out of memory");
  read_exact(in, decode, sizeof(double), p);
  read_exact(in, pool, sizeof(uint16_t), n * k);
  fclose(in);
  for (int64_t i = 0; i < n * k; i++)
    if (pool[i] >= p) die("pattern out of range");

  int64_t mismatches = 0;
  for (int64_t i = 0; i < iters; i++) {
    int e = (int)(i % ENTRIES);
    const uint16_t *src = pool + (i % k) * n;
    int64_t t0 = now_ns();
    eval_batch(e, src, decode, dst, n);
    int64_t t1 = now_ns();
    ns[i] = t1 - t0;
    double *fe = first + e * p;
    int64_t *se = seen + e * p;
    for (int64_t j = 0; j < n; j++) {
      uint16_t x = src[j];
      if (se[x] == 0)
        fe[x] = dst[j];
      else if (memcmp(&fe[x], &dst[j], sizeof(double)) != 0)
        mismatches++;
      se[x]++;
    }
  }

  FILE *out = fopen(argv[2], "wb");
  if (!out) die("cannot open output");
  write_exact(out, ns, sizeof(int64_t), iters);
  write_exact(out, first, sizeof(double), ENTRIES * p);
  write_exact(out, seen, sizeof(int64_t), ENTRIES * p);
  write_exact(out, &mismatches, sizeof(int64_t), 1);
  if (fclose(out) != 0) die("cannot close output");
  return 0;
}
