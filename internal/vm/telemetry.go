// Telemetry for machine faults. Faults are terminal (the machine halts), so
// unlike the dynamo hot-path sites these are counted unconditionally — no
// Sink, no configuration — and the per-kind counters carry stable names
// derived from faultNames so exporters and the chaos harness agree on them.
package vm

import (
	"errors"

	"netpath/internal/telemetry"
)

// faultCounters[k] counts delivered faults of kind k under
// vm_fault_<name>_total.
var faultCounters = func() [len(faultNames)]*telemetry.Counter {
	var cs [len(faultNames)]*telemetry.Counter
	for k, name := range faultNames {
		cs[k] = telemetry.NewCounter("vm_fault_"+name+"_total",
			"machine faults delivered: "+name)
	}
	return cs
}()

// countFault accounts one delivered fault in its kind's counter. Cold path
// by definition.
func countFault(kind FaultKind) {
	if int(kind) < len(faultCounters) {
		faultCounters[kind].Inc()
	}
}

// noteFaultErr accounts err if it is (or wraps) a *Fault and notifies the
// machine's fault observer; hook-injected errors pass through here on their
// way out of Step.
func (m *Machine) noteFaultErr(err error) {
	var f *Fault
	if errors.As(err, &f) {
		countFault(f.Kind)
		if m.faultObs != nil {
			m.faultObs(f.Kind, f.PC)
		}
	}
}
