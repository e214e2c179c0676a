package sim

import "testing"

// BenchmarkKernelSchedule measures steady-state event scheduling: one
// Schedule plus its eventual pop, with the queue depth bounded so the
// working set stays hot. This is the innermost operation of every
// simulated cycle-advance and must be allocation-free in steady state.
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(Cycles(i&63), fn)
		if k.Pending() >= 1024 {
			k.Drain()
		}
	}
	k.Drain()
}

// BenchmarkKernelScheduleCancel measures the schedule-then-cancel cycle
// (futex timeout timers that a wake beats), including the lazy-compaction
// machinery that keeps cancelled events from accumulating.
func BenchmarkKernelScheduleCancel(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := k.Schedule(Cycles(1000+i&63), fn)
		k.Schedule(Cycles(i&63), fn)
		k.Cancel(e)
		if k.Pending() >= 1024 {
			k.Drain()
		}
	}
	k.Drain()
}

// BenchmarkProcParkWake measures the self-wake path: a proc that sleeps
// repeatedly with no interleaving events. Each of its sleeps after the
// first advances the clock in place (the inline self-wake in
// Proc.Sleep), with no event queued and no coroutine switch;
// BenchmarkProcHandoff measures the queue and coroutine round trip.
func BenchmarkProcParkWake(b *testing.B) {
	k := NewKernel(1)
	n := b.N
	k.Go(0, "sleeper", 0, func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(10)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Drain()
}

// BenchmarkProcHandoff measures the cross-proc transfer path: two procs
// whose sleep wakes interleave, so every park passes control through the
// Run loop to the other proc (the pattern of every lock handover in the
// simulator). No sleep here can go inline: the other proc's wake-up is
// always queued first.
func BenchmarkProcHandoff(b *testing.B) {
	k := NewKernel(1)
	n := b.N
	body := func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(10)
		}
	}
	k.Go(0, "a", 0, body)
	k.Go(1, "b", 5, body)
	b.ReportAllocs()
	b.ResetTimer()
	k.Drain()
}
