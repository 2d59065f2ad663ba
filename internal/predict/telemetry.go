// Telemetry for the online predictors. The replay evaluator owns millions of
// Observe calls per sweep cell, so only the rare transition — a path newly
// predicted hot — is instrumented, and only when a Sink was installed; the
// disabled path is one nil check inside an already-taken branch.
package predict

import "netpath/internal/telemetry"

// telPredictions counts paths newly predicted hot across all schemes.
var telPredictions = telemetry.NewCounter("predict_predictions_total",
	"paths newly predicted hot (all schemes)")

// SetTelemetry installs the sink new predictions are reported through
// (nil disables, the default). Promoted to every predictor embedding
// predictedSet.
func (s *predictedSet) SetTelemetry(t *telemetry.Sink) { s.tel = t }

// report accounts one newly predicted path.
func (s *predictedSet) report() {
	if s.tel != nil {
		s.tel.Inc(telPredictions)
	}
}
