#include "core/power_model.hpp"

#include <stdexcept>

#include "photonics/laser.hpp"
#include "photonics/waveguide.hpp"
#include "util/units.hpp"

namespace comet::core {

double PowerBreakdown::total_w() const {
  double total = 0.0;
  for (const auto& c : components) total += c.watts;
  return total;
}

double PowerBreakdown::component_w(const std::string& name) const {
  for (const auto& c : components) {
    if (c.name == name) return c.watts;
  }
  throw std::invalid_argument("PowerBreakdown: unknown component " + name);
}

CometPowerModel::CometPowerModel(const CometConfig& config,
                                 const photonics::LossParameters& losses)
    : config_(config), losses_(losses) {
  config_.validate();
}

photonics::LossBudget CometPowerModel::launch_path_budget() const {
  photonics::LossBudget budget;
  budget.add("fiber coupler", losses_.coupling_loss_db);
  budget.add("GST subarray switch", losses_.gst_switch_loss_db);
  // ~2 cm of on-chip routing from the coupler to the farthest bank.
  budget.add("waveguide propagation", losses_.propagation_loss_db_per_cm,
             2.0);
  budget.add("waveguide bends", losses_.bending_loss_db_per_90deg, 8.0);
  // The accessed row's EO-tuned MR drops the wavelength into the cell.
  budget.add("EO MR drop", losses_.eo_mr_drop_loss_db);
  // Highest-order MDM mode of the B-degree link.
  const photonics::MdmLink link(config_.banks);
  budget.add("MDM worst mode", link.worst_mode_excess_loss_db());
  // Design margin.
  budget.add("margin", 1.0);
  return budget;
}

double CometPowerModel::laser_power_w() const {
  const photonics::Laser laser(losses_.laser_wall_plug_efficiency,
                               config_.wavelengths());
  return laser.electrical_power_w(losses_.max_power_at_cell_mw,
                                  launch_path_budget().total_db());
}

double CometPowerModel::soa_power_w() const {
  return static_cast<double>(config_.active_soas()) *
         losses_.intra_subarray_soa_power_mw * 1e-3;
}

double CometPowerModel::eo_tuning_power_w() const {
  // 1 nm worst-case resonance shift per tuned MR.
  constexpr double kShiftNm = 1.0;
  return static_cast<double>(config_.tuned_mrs_per_access()) *
         losses_.eo_tuning_power_uw_per_nm * 1e-6 * kShiftNm;
}

double CometPowerModel::interface_power_w() const {
  return config_.wavelengths() * kInterfacePerWavelengthMw * 1e-3 +
         kInterfaceControllerW;
}

PowerBreakdown CometPowerModel::breakdown() const {
  PowerBreakdown stack;
  stack.label = "COMET-" + std::to_string(config_.bits_per_cell) + "b";
  stack.components = {
      {"laser", laser_power_w()},
      {"soa", soa_power_w()},
      {"eo_tuning", eo_tuning_power_w()},
      {"interface", interface_power_w()},
  };
  return stack;
}

}  // namespace comet::core
