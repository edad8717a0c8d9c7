package core

import "machvm/internal/measure"

// SLOReport assembles the typed service-level snapshot the gate reporter
// consumes: fault latency percentiles, pager health, the structural
// invariant verdict and sustained fault throughput, all in virtual time
// so a deterministic world yields bit-identical reports on any host.
// The caller should have quiesced concurrent faulters.
func (k *Kernel) SLOReport() measure.SLOReport {
	snap := k.stats.Snapshot()
	h := &k.faultLatency
	now := k.machine.Clock.Now()

	r := measure.SLOReport{
		Faults:              snap.Faults,
		FaultP50NS:          h.Percentile(0.50),
		FaultP90NS:          h.Percentile(0.90),
		FaultP99NS:          h.Percentile(0.99),
		FaultMaxNS:          h.Max(),
		FaultMeanNS:         h.Mean(),
		PagerRoundTrips:     snap.PagerRoundTrips,
		PagerTimeouts:       snap.PagerTimeouts,
		PagerErrors:         snap.PagerErrors,
		PagerFallbacks:      snap.PagerFallbacks,
		InvariantViolations: len(k.CheckInvariants()),
		VirtualNS:           now,
	}
	if snap.PagerRoundTrips > 0 {
		r.PagerTimeoutRate = float64(snap.PagerTimeouts) / float64(snap.PagerRoundTrips)
	}
	if now > 0 {
		r.FaultsPerVirtualSec = float64(snap.Faults) / (float64(now) / 1e9)
	}
	return r
}
