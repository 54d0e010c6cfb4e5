#include "linalg/updatable_cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace tomo::linalg {

UpdatableCholesky::UpdatableCholesky(std::size_t capacity) {
  l_.reserve(capacity * (capacity + 1) / 2);
}

bool UpdatableCholesky::append(const Vector& cross, double diag,
                               double rel_tol) {
  TOMO_REQUIRE(cross.size() == size_,
               "updatable cholesky: cross-term length mismatch");
  TOMO_REQUIRE(diag > 0.0, "updatable cholesky: non-positive diagonal");

  // Forward-substitute the new off-diagonal row: L row = cross.
  Vector row(size_);
  double row_norm2 = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    double sum = cross[i];
    for (std::size_t k = 0; k < i; ++k) {
      sum -= at(i, k) * row[k];
    }
    row[i] = sum / at(i, i);
    row_norm2 += row[i] * row[i];
  }
  const double schur = diag - row_norm2;
  if (!(schur > rel_tol * diag)) {
    return false;  // numerically dependent on the factored columns
  }
  for (std::size_t i = 0; i < size_; ++i) {
    l_.push_back(row[i]);
  }
  l_.push_back(std::sqrt(schur));
  ++size_;
  return true;
}

void UpdatableCholesky::remove(std::size_t position) {
  TOMO_REQUIRE(position < size_, "updatable cholesky: remove out of range");

  // Dropping row `position` leaves the trailing rows one entry longer than
  // their new slots: a lower-Hessenberg tail, re-triangularized in place by
  // Givens rotations from the right. Rotation j mixes columns j and j + 1
  // of every row below j, zeroing row j + 1's column j + 1 against its
  // column j.
  for (std::size_t j = position; j + 1 < size_; ++j) {
    const double a = at(j + 1, j);
    const double b = at(j + 1, j + 1);
    // b is row j + 1's original diagonal (sqrt of a positive Schur
    // complement, untouched by the earlier rotations, which only reach
    // columns <= j), so the rotation is always well defined and the new
    // diagonal radius = hypot(a, b) stays positive.
    const double radius = std::hypot(a, b);
    TOMO_ASSERT(radius > 0.0);
    const double c = a / radius;
    const double s = b / radius;
    for (std::size_t r = j + 1; r < size_; ++r) {
      const double u = at(r, j);
      const double v = at(r, j + 1);
      at(r, j) = c * u + s * v;
      at(r, j + 1) = c * v - s * u;
    }
  }
  // Shift each trailing row r up into row r - 1's slot, dropping its (now
  // zero) last entry. Packed row r - 1 ends where row r starts, so the
  // ascending copy only overwrites rows it has already moved.
  for (std::size_t r = position + 1; r < size_; ++r) {
    std::copy_n(l_.begin() + static_cast<std::ptrdiff_t>(r * (r + 1) / 2), r,
                l_.begin() + static_cast<std::ptrdiff_t>(r * (r - 1) / 2));
  }
  --size_;
  l_.resize(size_ * (size_ + 1) / 2);
}

Vector UpdatableCholesky::solve(const Vector& rhs) const {
  TOMO_REQUIRE(rhs.size() == size_,
               "updatable cholesky: solve rhs length mismatch");
  Vector y(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    double sum = rhs[i];
    for (std::size_t k = 0; k < i; ++k) {
      sum -= at(i, k) * y[k];
    }
    y[i] = sum / at(i, i);
  }
  Vector z(size_);
  for (std::size_t i = size_; i-- > 0;) {
    double sum = y[i];
    for (std::size_t k = i + 1; k < size_; ++k) {
      sum -= at(k, i) * z[k];
    }
    z[i] = sum / at(i, i);
  }
  return z;
}

void UpdatableCholesky::clear() {
  l_.clear();
  size_ = 0;
}

}  // namespace tomo::linalg
