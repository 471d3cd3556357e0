#pragma once

/// Mode-division-multiplexing (MDM) link model.
///
/// COMET interleaves cache lines across B banks over a hybrid WDM+MDM
/// link. Section III.C explains the MDM-degree tradeoff: higher-order
/// modes confine less, leak more, and need wider waveguides, so COMET
/// caps the degree at 4 (achievable on chip "without notable losses or
/// area overhead" [28]).
namespace comet::photonics {

/// MDM link with per-mode excess loss.
class MdmLink {
 public:
  /// `degree` modes; mode m (0-based) suffers m * per_mode_excess_db of
  /// extra loss relative to the fundamental, reflecting its weaker
  /// confinement. The paper treats degree 4 as essentially loss-free and
  /// calls 16-degree "extremely challenging"; the default excess models
  /// that knee.
  MdmLink(int degree, double per_mode_excess_db = 0.05);

  int degree() const { return degree_; }

  /// Excess loss of mode m in [0, degree) [dB].
  double mode_excess_loss_db(int mode) const;

  /// Worst-case (highest-order mode) excess loss [dB].
  double worst_mode_excess_loss_db() const;

  /// Required waveguide width [nm]: each extra mode adds roughly half a
  /// fundamental width (480 nm single-mode strip baseline).
  double required_width_nm() const;

 private:
  int degree_;
  double per_mode_excess_db_;
};

}  // namespace comet::photonics
