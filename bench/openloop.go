package main

// The open-loop half of server_open. The requests execute serially on the
// host and each one's service time is read off the virtual clock; this file
// then replays those service times through an open-loop queue on the same
// clock: arrivals on a fixed schedule that does not wait for replies (the
// tenants' users are independent), served by the earliest-free of the
// machine's simulated CPUs, latency counted from the scheduled arrival.
// The generator is never late: arrival times are computed, not slept for.

import (
	"math"
	"slices"
)

const (
	serverCPUs = 4

	// Arrival rates in requests per virtual second, fixed once at about
	// 30 %, 80 % and 95 % of the capacity the baseline commit showed
	// (serverCPUs / mean service time, see README). They are absolute: a
	// change that makes requests cheaper meets the same traffic with more
	// headroom, it is not handed more traffic.
	rateR1 = 23.0
	rateR2 = 61.0
	rateR3 = 72.0

	// sloLimitVMS is the latency limit of max_rate_slo_rps in virtual ms:
	// about twice the baseline's p99 at r1, which puts the baseline between
	// two rungs of the ladder, well clear of both. (Ten times the unloaded
	// median of 25 vms would be unmeetable at any rate: a third of the
	// traffic goes to cold tenants whose requests page their image and
	// anonymous memory back in, so the unloaded p99 is already 13 medians.)
	sloLimitVMS = 650.0

	// arrivalSeed fixes the arrival schedules of every replay, whatever
	// -seed says: runs then differ only in the service times they
	// measured (common random numbers), not in the luck of their
	// arrivals.
	arrivalSeed = 0x0A221BA1
)

// The fixed ladder max_rate_slo_rps walks: 16 rungs, 36 to 81 req/vs.
const (
	ladderFirst = 36.0
	ladderStep  = 3.0
	ladderRungs = 16
)

// replaySchedules is how many independent arrival schedules each rate is
// replayed under; their latencies are pooled. One schedule leaves the tail
// at the mercy of where its few bursts happen to meet the slow requests
// (p99 at 80 % load moved 10 % from seed to seed); 32 bring that to 1 %.
const replaySchedules = 32

// replay pushes the service times (virtual ns) through the queue at rate
// requests per virtual second under one arrival schedule and appends each
// request's latency in ns to lat.
func replay(lat []int64, service []int64, rate float64, schedule uint64) []int64 {
	rng := newLCG(arrivalSeed, schedule)
	var free [serverCPUs]float64
	arrival := 0.0
	for _, s := range service {
		// Exponential gap: -ln(U)/rate seconds, U in (0,1].
		u := (float64(rng.next()) + 1) / (1 << 31)
		arrival += -math.Log(u) / rate * 1e9
		cpu := 0
		for c := 1; c < serverCPUs; c++ {
			if free[c] < free[cpu] {
				cpu = c
			}
		}
		start := math.Max(arrival, free[cpu])
		free[cpu] = start + float64(s)
		lat = append(lat, int64(free[cpu]-arrival))
	}
	return lat
}

// load is the outcome of offering one rate: the pooled latencies, sorted,
// and whether the backlog kept growing (the last tenth of the requests more
// than twice as slow on average as the first tenth).
type load struct {
	sorted  []int64
	growing bool
}

func offer(service []int64, rate float64) load {
	var l load
	n := len(service)
	tenth := max(n/10, 1)
	l.sorted = make([]int64, 0, n*replaySchedules)
	var first, last float64
	for k := uint64(0); k < replaySchedules; k++ {
		l.sorted = replay(l.sorted, service, rate, k)
		lat := l.sorted[len(l.sorted)-n:]
		first += mean(lat[:tenth])
		last += mean(lat[n-tenth:])
	}
	l.growing = last > 2*first
	slices.Sort(l.sorted)
	return l
}

// vms returns the q-quantile (nearest rank) in virtual milliseconds.
func (l load) vms(q float64) float64 {
	i := int(math.Ceil(q*float64(len(l.sorted)))) - 1
	return float64(l.sorted[max(i, 0)]) / 1e6
}

func mean(v []int64) float64 {
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

// openLoopMetrics computes server_open's request metrics.
func openLoopMetrics(service []int64) map[string]float64 {
	r1 := offer(service, rateR1)
	m := map[string]float64{
		"req_p50_vms_r1": r1.vms(0.50),
		"req_p99_vms_r1": r1.vms(0.99),
		"req_p99_vms_r2": offer(service, rateR2).vms(0.99),
		"req_p99_vms_r3": offer(service, rateR3).vms(0.99),
	}
	// The highest rung that meets the latency limit without a growing
	// backlog. Below the lowest rung there is nothing to report but that
	// rung failing; the metric must never be zero.
	best := ladderFirst / 2
	for i := 0; i < ladderRungs; i++ {
		rate := ladderFirst + ladderStep*float64(i)
		if l := offer(service, rate); l.growing || l.vms(0.99) > sloLimitVMS {
			break
		}
		best = rate
	}
	m["max_rate_slo_rps"] = best
	return m
}
