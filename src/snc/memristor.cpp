#include "snc/memristor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qsnc::snc {

double g_min(const MemristorConfig& config) { return 1.0 / config.r_off_ohm; }
double g_max(const MemristorConfig& config) { return 1.0 / config.r_on_ohm; }

double level_conductance(int64_t level, int64_t max_level,
                         const MemristorConfig& config) {
  if (max_level <= 0 || level < 0 || level > max_level) {
    throw std::invalid_argument("level_conductance: bad level");
  }
  const double lo = g_min(config);
  const double hi = g_max(config);
  return lo + (hi - lo) * static_cast<double>(level) /
                  static_cast<double>(max_level);
}

int64_t nearest_level(double g, int64_t max_level,
                      const MemristorConfig& config) {
  const double lo = g_min(config);
  const double hi = g_max(config);
  const double t = (g - lo) / (hi - lo) * static_cast<double>(max_level);
  const int64_t k = static_cast<int64_t>(std::llround(t));
  return std::clamp<int64_t>(k, 0, max_level);
}

double fractional_level(double g, int64_t max_level,
                        const MemristorConfig& config) {
  const double lo = g_min(config);
  const double hi = g_max(config);
  const double t = (g - lo) / (hi - lo) * static_cast<double>(max_level);
  return std::clamp(t, 0.0, static_cast<double>(max_level));
}

double drift_conductance(double g, double lambda, double dt,
                         const MemristorConfig& config) {
  const double lo = g_min(config);
  return lo + (g - lo) * std::exp(-lambda * dt);
}

}  // namespace qsnc::snc
