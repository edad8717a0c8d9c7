package ztier_test

// Benchmarks for the compressed tier: codec-level store/load costs and
// the working-set sweep (the benchtables headline, kept here so CI's
// bench smoke exercises it). Virtual-time metrics are reported alongside
// wall time — the repo's comparative numbers are virtual.

import (
	"context"
	"testing"

	"machvm/internal/core"
	"machvm/internal/pager/ztier"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
)

func BenchmarkTierStoreCompress(b *testing.B) {
	backing := newMemBacking(nil)
	tier := ztier.New(backing, ztier.Config{Budget: 1 << 30, PageSize: pgsz})
	defer tier.Close()
	obj := &core.Object{}
	data := make([]byte, pgsz)
	pagePattern(data, 3)
	b.SetBytes(pgsz)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tier.DataWrite(context.Background(), obj, uint64(i%256)*pgsz, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTierHitDecompress(b *testing.B) {
	backing := newMemBacking(nil)
	tier := ztier.New(backing, ztier.Config{Budget: 1 << 30, PageSize: pgsz})
	defer tier.Close()
	obj := &core.Object{}
	data := make([]byte, pgsz)
	pagePattern(data, 7)
	if err := tier.DataWrite(context.Background(), obj, 0, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(pgsz)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tier.DataRequest(context.Background(), obj, 0, pgsz); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkingSetSweep runs the tiered-paging working-set sweep: a
// task whose working set is a multiple of physical memory touches every
// page repeatedly against a delayed backing pager, with and without the
// compressed tier. The interesting output is virtual time per page
// (vns/page) — the graceful-degradation curve benchtables renders.
func BenchmarkWorkingSetSweep(b *testing.B) {
	const frames = 512 // × 512B = 256KB RAM = 64 mach pages
	ramPages := frames * vax.HWPageSize / pgsz
	for _, ws := range []struct {
		name  string
		num   int
		denom int
	}{
		{"ws0.5x", 1, 2}, {"ws1x", 1, 1}, {"ws1.5x", 3, 2}, {"ws2x", 2, 1},
	} {
		for _, tiered := range []bool{false, true} {
			name := ws.name + "/flat"
			if tiered {
				name = ws.name + "/ztier"
			}
			b.Run(name, func(b *testing.B) {
				wsPages := ramPages * ws.num / ws.denom
				var virtual int64
				var touched int64
				for i := 0; i < b.N; i++ {
					k, machine := newTierKernel(b, 1, frames)
					backing := newMemBacking(machine)
					backing.delayNS = 40e6
					var pg core.Pager = backing
					var tier *ztier.Tier
					if tiered {
						tier = ztier.New(backing, ztier.Config{
							Budget: 4 << 20, PageSize: pgsz, Stats: k.Stats(), Machine: machine,
						})
						pg = tier
					}
					size := uint64(wsPages) * pgsz
					obj := k.NewObject(size, pg, "sweep")
					m, addr := mapObject(b, k, machine, obj, size)
					cpu := machine.CPU(0)
					buf := make([]byte, pgsz)
					for p := 0; p < wsPages; p++ {
						pagePattern(buf, p)
						if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(p*pgsz), buf, true); err != nil {
							b.Fatal(err)
						}
					}
					for pass := 0; pass < 2; pass++ {
						k.PageoutScan()
						for p := 0; p < wsPages; p++ {
							if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(p*pgsz), buf[:64], false); err != nil {
								b.Fatal(err)
							}
							touched++
						}
					}
					virtual += machine.Clock.Now()
					m.Destroy()
					if tier != nil {
						tier.Close()
					}
				}
				if touched > 0 {
					b.ReportMetric(float64(virtual)/float64(touched), "vns/page")
				}
			})
		}
	}
}
