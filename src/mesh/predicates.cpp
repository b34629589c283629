#include "mesh/predicates.hpp"

#include <atomic>
#include <utility>

namespace mrts::mesh {
namespace {

std::atomic<unsigned long long> g_exact_fallbacks{0};

// --- error-free transformations -------------------------------------------
// All assume round-to-nearest IEEE-754 doubles and no FMA contraction.

constexpr double kSplitter = 134217729.0;  // 2^27 + 1

inline void two_sum(double a, double b, double& x, double& y) {
  x = a + b;
  const double bvirt = x - a;
  const double avirt = x - bvirt;
  const double bround = b - bvirt;
  const double around = a - avirt;
  y = around + bround;
}

inline void two_diff(double a, double b, double& x, double& y) {
  x = a - b;
  const double bvirt = a - x;
  const double avirt = x + bvirt;
  const double bround = bvirt - b;
  const double around = a - avirt;
  y = around + bround;
}

inline void split(double a, double& hi, double& lo) {
  const double c = kSplitter * a;
  const double abig = c - a;
  hi = c - abig;
  lo = a - hi;
}

inline void two_product(double a, double b, double& x, double& y) {
  x = a * b;
  double ahi, alo, bhi, blo;
  split(a, ahi, alo);
  split(b, bhi, blo);
  const double err1 = x - (ahi * bhi);
  const double err2 = err1 - (alo * bhi);
  const double err3 = err2 - (ahi * blo);
  y = (alo * blo) - err3;
}

// --- expansion arithmetic ---------------------------------------------------
// An expansion is an array of doubles, increasing in magnitude, whose exact
// sum is the represented value. Routines below are Shewchuk's
// zero-eliminating variants.

int fast_expansion_sum_zeroelim(int elen, const double* e, int flen,
                                const double* f, double* h) {
  double Q;
  double enow = e[0];
  double fnow = f[0];
  int eindex = 0, findex = 0;
  if ((fnow > enow) == (fnow > -enow)) {
    Q = enow;
    ++eindex;
  } else {
    Q = fnow;
    ++findex;
  }
  int hindex = 0;
  double Qnew, hh;
  if (eindex < elen && findex < flen) {
    enow = e[eindex];
    fnow = f[findex];
    if ((fnow > enow) == (fnow > -enow)) {
      two_sum(enow, Q, Qnew, hh);
      ++eindex;
    } else {
      two_sum(fnow, Q, Qnew, hh);
      ++findex;
    }
    Q = Qnew;
    if (hh != 0.0) h[hindex++] = hh;
    while (eindex < elen && findex < flen) {
      enow = e[eindex];
      fnow = f[findex];
      if ((fnow > enow) == (fnow > -enow)) {
        two_sum(Q, enow, Qnew, hh);
        ++eindex;
      } else {
        two_sum(Q, fnow, Qnew, hh);
        ++findex;
      }
      Q = Qnew;
      if (hh != 0.0) h[hindex++] = hh;
    }
  }
  while (eindex < elen) {
    two_sum(Q, e[eindex], Qnew, hh);
    ++eindex;
    Q = Qnew;
    if (hh != 0.0) h[hindex++] = hh;
  }
  while (findex < flen) {
    two_sum(Q, f[findex], Qnew, hh);
    ++findex;
    Q = Qnew;
    if (hh != 0.0) h[hindex++] = hh;
  }
  if (Q != 0.0 || hindex == 0) h[hindex++] = Q;
  return hindex;
}

int scale_expansion_zeroelim(int elen, const double* e, double b, double* h) {
  double bhi, blo;
  split(b, bhi, blo);
  double Q, sum, hh, product1, product0;
  two_product(e[0], b, Q, hh);
  int hindex = 0;
  if (hh != 0.0) h[hindex++] = hh;
  for (int eindex = 1; eindex < elen; ++eindex) {
    const double enow = e[eindex];
    // two_product with b pre-split.
    product1 = enow * b;
    double ahi, alo;
    split(enow, ahi, alo);
    const double err1 = product1 - (ahi * bhi);
    const double err2 = err1 - (alo * bhi);
    const double err3 = err2 - (ahi * blo);
    product0 = (alo * blo) - err3;
    two_sum(Q, product0, sum, hh);
    if (hh != 0.0) h[hindex++] = hh;
    two_sum(product1, sum, Q, hh);
    if (hh != 0.0) h[hindex++] = hh;
  }
  if (Q != 0.0 || hindex == 0) h[hindex++] = Q;
  return hindex;
}

/// General expansion product via repeated scale-and-sum. Result may use up
/// to 2 * elen * flen components; callers size buffers accordingly.
int expansion_product(int elen, const double* e, int flen, const double* f,
                      double* h, double* scratch_a, double* scratch_b) {
  // Accumulate sum over i of e * f[i] using ping-pong buffers.
  int alen = 1;
  scratch_a[0] = 0.0;
  double* acc = scratch_a;
  double* other = scratch_b;
  double term[64];
  for (int i = 0; i < flen; ++i) {
    const int tlen = scale_expansion_zeroelim(elen, e, f[i], term);
    const int nlen = fast_expansion_sum_zeroelim(alen, acc, tlen, term, other);
    std::swap(acc, other);
    alen = nlen;
  }
  for (int i = 0; i < alen; ++i) h[i] = acc[i];
  return alen;
}

inline double expansion_sign(int len, const double* e) {
  // Largest-magnitude component is last; its sign is the expansion's sign.
  return e[len - 1];
}

}  // namespace

namespace detail {

// --- orient2d ----------------------------------------------------------------

double orient2d_exact(const Point2& pa, const Point2& pb, const Point2& pc) {
  g_exact_fallbacks.fetch_add(1, std::memory_order_relaxed);
  // (ax-cx)(by-cy) - (ay-cy)(bx-cx), exactly.
  double acx[2], acy[2], bcx[2], bcy[2];
  two_diff(pa.x, pc.x, acx[1], acx[0]);
  two_diff(pa.y, pc.y, acy[1], acy[0]);
  two_diff(pb.x, pc.x, bcx[1], bcx[0]);
  two_diff(pb.y, pc.y, bcy[1], bcy[0]);
  double left[16], right[16], sa[64], sb[64];
  const int llen =
      expansion_product(2, acx, 2, bcy, left, sa, sb);
  const int rlen =
      expansion_product(2, acy, 2, bcx, right, sa, sb);
  double neg_right[16];
  for (int i = 0; i < rlen; ++i) neg_right[i] = -right[i];
  double det[32];
  const int dlen = fast_expansion_sum_zeroelim(llen, left, rlen, neg_right, det);
  return expansion_sign(dlen, det);
}

// --- incircle ------------------------------------------------------------------

double incircle_exact(const Point2& pa, const Point2& pb, const Point2& pc,
                      const Point2& pd) {
  g_exact_fallbacks.fetch_add(1, std::memory_order_relaxed);
  // Determinant of the 3x3 lifted matrix with rows (x-dx, y-dy, x'^2+y'^2).
  double adx[2], ady[2], bdx[2], bdy[2], cdx[2], cdy[2];
  two_diff(pa.x, pd.x, adx[1], adx[0]);
  two_diff(pa.y, pd.y, ady[1], ady[0]);
  two_diff(pb.x, pd.x, bdx[1], bdx[0]);
  two_diff(pb.y, pd.y, bdy[1], bdy[0]);
  two_diff(pc.x, pd.x, cdx[1], cdx[0]);
  two_diff(pc.y, pd.y, cdy[1], cdy[0]);

  // Workspace sized for the worst intermediate expansions.
  static thread_local double sa[4096], sb[4096];

  auto lift = [&](const double* x, const double* y, double* out) {
    double xx[16], yy[16];
    const int xlen = expansion_product(2, x, 2, x, xx, sa, sb);
    const int ylen = expansion_product(2, y, 2, y, yy, sa, sb);
    return fast_expansion_sum_zeroelim(xlen, xx, ylen, yy, out);
  };
  double la[32], lb[32], lc[32];
  const int lalen = lift(adx, ady, la);
  const int lblen = lift(bdx, bdy, lb);
  const int lclen = lift(cdx, cdy, lc);

  auto cross = [&](const double* x1, const double* y1, const double* x2,
                   const double* y2, double* out) {
    double p1[16], p2[16];
    const int l1 = expansion_product(2, x1, 2, y2, p1, sa, sb);
    const int l2 = expansion_product(2, y1, 2, x2, p2, sa, sb);
    double n2[16];
    for (int i = 0; i < l2; ++i) n2[i] = -p2[i];
    return fast_expansion_sum_zeroelim(l1, p1, l2, n2, out);
  };
  double mbc[32], mca[32], mab[32];
  const int mbclen = cross(bdx, bdy, cdx, cdy, mbc);  // bdx*cdy - bdy*cdx
  const int mcalen = cross(cdx, cdy, adx, ady, mca);
  const int mablen = cross(adx, ady, bdx, bdy, mab);

  static thread_local double ta[4096], tb[4096], tc[4096];
  const int talen = expansion_product(lalen, la, mbclen, mbc, ta, sa, sb);
  const int tblen = expansion_product(lblen, lb, mcalen, mca, tb, sa, sb);
  const int tclen = expansion_product(lclen, lc, mablen, mab, tc, sa, sb);

  static thread_local double tmp[8192], det[8192];
  const int tmplen = fast_expansion_sum_zeroelim(talen, ta, tblen, tb, tmp);
  const int detlen = fast_expansion_sum_zeroelim(tmplen, tmp, tclen, tc, det);
  return expansion_sign(detlen, det);
}

}  // namespace detail

unsigned long long predicate_exact_fallbacks() {
  return g_exact_fallbacks.load(std::memory_order_relaxed);
}

}  // namespace mrts::mesh
