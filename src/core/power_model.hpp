#pragma once

#include <string>
#include <vector>

#include "core/comet_config.hpp"
#include "photonics/losses.hpp"

/// COMET operating-power model (paper Section III.E, Figs. 7 & 8).
///
/// Four stacks make up the chip power at any instant of operation:
///
///  * laser      — off-chip comb laser: the per-wavelength optical power
///                 needed at the GST cells (Table I: 1 mW) multiplied
///                 back through the worst-case launch path loss and the
///                 20 % wall-plug efficiency, for all N_c wavelengths;
///  * SOA        — intra-subarray gain stages; only the accessed
///                 subarray's stages are enabled:
///                 (B x M_r x M_c / 46) x 1.4 mW;
///  * EO tuning  — carrier injection on the accessed row's MRs:
///                 B x 2 x M_c x P_EO;
///  * interface  — per-wavelength modulator/driver/receiver power plus
///                 the controller-side electronics.
///
/// The b = {1, 2, 4} sweep reproduces Fig. 7: halving M_c with rising b
/// cuts both the WDM degree (laser, interface) and the active-SOA count,
/// which is why COMET-4b is the chosen design point.
namespace comet::core {

/// Interface electronics, shared with the COSMOS power model: the
/// per-wavelength modulator driver + receiver (TIA) power, and the fixed
/// controller-side electronics (LUT lookups are explicitly excluded by
/// the paper as controller-side overhead).
inline constexpr double kInterfacePerWavelengthMw = 10.0;
inline constexpr double kInterfaceControllerW = 0.5;

/// One named component of a power stack [W].
struct PowerComponent {
  std::string name;
  double watts;
};

/// A named power stack (one bar of Fig. 7 / Fig. 8).
struct PowerBreakdown {
  std::string label;
  std::vector<PowerComponent> components;

  double total_w() const;
  double component_w(const std::string& name) const;
};

class CometPowerModel {
 public:
  CometPowerModel(const CometConfig& config,
                  const photonics::LossParameters& losses);

  /// Itemized worst-case laser-to-cell launch path loss [dB]. SOA spans
  /// inside the subarray are self-compensated (15.2 dB gain vs 46 x 0.33
  /// dB of row loss), so the budget carries only the uncompensated part.
  photonics::LossBudget launch_path_budget() const;

  double laser_power_w() const;
  double soa_power_w() const;
  double eo_tuning_power_w() const;
  double interface_power_w() const;

  /// The full stack (one Fig. 7 bar).
  PowerBreakdown breakdown() const;

  const CometConfig& config() const { return config_; }

 private:
  CometConfig config_;
  photonics::LossParameters losses_;
};

}  // namespace comet::core
