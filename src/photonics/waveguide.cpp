#include "photonics/waveguide.hpp"

#include <stdexcept>

namespace comet::photonics {

MdmLink::MdmLink(int degree, double per_mode_excess_db)
    : degree_(degree), per_mode_excess_db_(per_mode_excess_db) {
  if (degree < 1 || per_mode_excess_db < 0.0) {
    throw std::invalid_argument("MdmLink: invalid parameters");
  }
}

double MdmLink::mode_excess_loss_db(int mode) const {
  if (mode < 0 || mode >= degree_) {
    throw std::invalid_argument("MdmLink: mode out of range");
  }
  return mode * per_mode_excess_db_;
}

double MdmLink::worst_mode_excess_loss_db() const {
  return mode_excess_loss_db(degree_ - 1);
}

double MdmLink::required_width_nm() const {
  constexpr double kSingleModeWidthNm = 480.0;
  return kSingleModeWidthNm * (1.0 + 0.5 * (degree_ - 1));
}

}  // namespace comet::photonics
