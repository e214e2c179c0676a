package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.Schedule(30, func() { order = append(order, 3) })
	k.Schedule(10, func() { order = append(order, 1) })
	k.Schedule(20, func() { order = append(order, 2) })
	k.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %d, want 30", k.Now())
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5, func() { order = append(order, i) })
	}
	k.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.Schedule(10, func() { fired = true })
	k.Cancel(e)
	k.Cancel(e) // idempotent
	k.Cancel(Event{})
	k.Drain()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Cycles
	for _, d := range []Cycles{10, 20, 30, 40} {
		d := d
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.Run(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10,20 only", fired)
	}
	if k.Now() != 25 {
		t.Fatalf("clock = %d, want 25", k.Now())
	}
	k.Run(0)
	if len(fired) != 4 {
		t.Fatalf("resume failed: %v", fired)
	}
}

func TestKernelRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	k.Run(100)
	if k.Now() != 100 {
		t.Fatalf("clock = %d, want 100", k.Now())
	}
}

func TestKernelStop(t *testing.T) {
	t.Run("callback", func(t *testing.T) {
		k := NewKernel(1)
		n := 0
		k.Schedule(1, func() { n++; k.Stop() })
		k.Schedule(2, func() { n++ })
		k.Run(0)
		if n != 1 {
			t.Fatalf("Stop did not halt the loop: n=%d", n)
		}
	})
	t.Run("proc body", func(t *testing.T) {
		// The second Sleep would otherwise advance the clock in place
		// (the proc was resumed by the Run loop and the queue is
		// empty): after Stop it must park so Run can return.
		k := NewKernel(1)
		var seen []Cycles
		p := k.Go(0, "p", 0, func(p *Proc) {
			p.Sleep(10)
			seen = append(seen, p.Now())
			p.Kernel().Stop()
			p.Sleep(10)
			seen = append(seen, p.Now())
		})
		if end := k.Run(0); end != 10 || len(seen) != 1 {
			t.Fatalf("Stop from a proc: Run returned at %d with %v, want 10 with [10]", end, seen)
		}
		if p.State() != ProcParked || k.Pending() != 1 {
			t.Fatalf("after Stop: proc %v with %d pending, want parked with 1", p.State(), k.Pending())
		}
		if end := k.Run(0); end != 20 || len(seen) != 2 || seen[1] != 20 || !p.Done() {
			t.Fatalf("second Run: returned at %d with %v (proc %v), want 20 with [10 20] and done",
				end, seen, p.State())
		}
	})
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := NewKernel(1)
	var trace []Cycles
	k.Schedule(10, func() {
		trace = append(trace, k.Now())
		k.Schedule(5, func() { trace = append(trace, k.Now()) })
	})
	k.Drain()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("nested scheduling broken: %v", trace)
	}
}

func TestProcSleepInterleaving(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	mk := func(name string, step Cycles) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(step)
				trace = append(trace, name)
			}
		}
	}
	k.Go(0, "a", 0, mk("a", 10))
	k.Go(1, "b", 0, mk("b", 15))
	k.Drain()
	// a wakes at 10,20,30; b at 15,30,45. At t=30 b's wake fires first
	// because it was scheduled earlier (lower sequence number).
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestProcParkWake(t *testing.T) {
	k := NewKernel(1)
	var got uint64
	var waiter *Proc
	waiter = k.NewProc(0, "waiter", func(p *Proc) {
		got = p.Park()
	})
	k.Schedule(0, func() { waiter.Start() })
	k.Schedule(50, func() { waiter.Wake(42) })
	k.Drain()
	if got != 42 {
		t.Fatalf("WakeVal = %d, want 42", got)
	}
	if !waiter.Done() {
		t.Fatal("waiter not done")
	}
}

func TestProcWakeFromOtherProc(t *testing.T) {
	k := NewKernel(1)
	var order []string
	var a *Proc
	a = k.NewProc(0, "a", func(p *Proc) {
		p.Park()
		order = append(order, "a-woken")
	})
	k.Go(1, "b", 0, func(p *Proc) {
		p.Sleep(10)
		order = append(order, "b-before-wake")
		a.Wake(1)
		order = append(order, "b-after-wake")
	})
	k.Schedule(0, func() { a.Start() })
	k.Drain()
	want := []string{"b-before-wake", "a-woken", "b-after-wake"}
	if len(order) != 3 {
		t.Fatalf("order %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

// TestWakeFromCallbackIsSynchronous: a Wake issued by an event callback
// runs the woken proc to its next park before Wake returns, so the
// callback may go on to schedule events and draw randomness, and those
// come after everything the woken proc did.
func TestWakeFromCallbackIsSynchronous(t *testing.T) {
	k := NewKernel(1)
	var trace []string
	var procDraw, cbDraw int
	p := k.NewProc(0, "p", func(p *Proc) {
		if v := p.Park(); v != 7 {
			t.Errorf("WakeVal = %d, want 7", v)
		}
		procDraw = p.Kernel().Rand().Intn(1 << 30)
		trace = append(trace, "proc woken")
		p.Park()
	})
	k.Schedule(0, p.Start)
	k.Schedule(10, func() {
		p.Wake(7)
		if p.State() != ProcParked {
			t.Errorf("after Wake returned the proc is %v, want parked", p.State())
		}
		trace = append(trace, "callback after wake")
		cbDraw = k.Rand().Intn(1 << 30)
		k.Schedule(5, func() { trace = append(trace, "scheduled after wake") })
	})
	if end := k.Drain(); end != 15 {
		t.Fatalf("Drain ended at %d, want 15", end)
	}
	want := []string{"proc woken", "callback after wake", "scheduled after wake"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
	ref := rand.New(rand.NewSource(1))
	if first, second := ref.Intn(1<<30), ref.Intn(1<<30); procDraw != first || cbDraw != second {
		t.Fatalf("draws proc=%d callback=%d, want proc first (%d) then callback (%d)",
			procDraw, cbDraw, first, second)
	}
}

// runRecover runs k to completion and returns the value Run panicked
// with, or nil.
func runRecover(k *Kernel) (r any) {
	defer func() { r = recover() }()
	k.Drain()
	return nil
}

type boom struct{ where string }

// TestRunPropagatesPanics: a panic anywhere in simulation context leaves
// Run with its original value, whichever proc or callback raised it.
func TestRunPropagatesPanics(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T, k *Kernel)
	}{
		{"proc body", func(t *testing.T, k *Kernel) {
			k.Go(0, "p", 0, func(p *Proc) {
				p.Sleep(5)
				panic(boom{"proc body"})
			})
		}},
		{"proc woken by another proc", func(t *testing.T, k *Kernel) {
			a := k.Go(0, "a", 0, func(p *Proc) {
				p.Park()
				panic(boom{"proc woken by another proc"})
			})
			k.Go(1, "b", 1, func(p *Proc) {
				p.Sleep(10)
				a.Wake(1)
				t.Error("waker continued after the woken proc panicked")
			})
		}},
		{"callback after a park", func(t *testing.T, k *Kernel) {
			k.Go(0, "p", 0, func(p *Proc) {
				p.Sleep(5)
				p.Park()
			})
			k.Schedule(10, func() { panic(boom{"callback after a park"}) })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel(1)
			c.setup(t, k)
			if r := runRecover(k); r != (boom{c.name}) {
				t.Fatalf("Run panicked with %v, want %v", r, boom{c.name})
			}
		})
	}
}

func TestWakeAtCancellable(t *testing.T) {
	k := NewKernel(1)
	woken := false
	p := k.NewProc(0, "p", func(p *Proc) {
		v := p.Park()
		woken = true
		if v != 7 {
			t.Errorf("WakeVal = %d, want 7", v)
		}
	})
	k.Schedule(0, func() { p.Start() })
	k.Schedule(1, func() {
		timer := p.WakeAt(100, 99)
		k.Cancel(timer)
		p.WakeAt(10, 7)
	})
	k.Drain()
	if !woken {
		t.Fatal("never woken")
	}
}

func TestProcStates(t *testing.T) {
	k := NewKernel(1)
	p := k.NewProc(0, "p", func(p *Proc) { p.Sleep(5) })
	if p.State() != ProcNew {
		t.Fatalf("state %v, want new", p.State())
	}
	k.Schedule(0, func() { p.Start() })
	k.Run(1)
	if p.State() != ProcParked {
		t.Fatalf("state %v, want parked", p.State())
	}
	k.Drain()
	if p.State() != ProcDone {
		t.Fatalf("state %v, want done", p.State())
	}
	for _, s := range []ProcState{ProcNew, ProcRunning, ProcParked, ProcDone, ProcState(77)} {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []uint64 {
		k := NewKernel(seed)
		var out []uint64
		for i := 0; i < 4; i++ {
			i := i
			k.Go(i, "w", 0, func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Sleep(Cycles(1 + p.Kernel().Rand().Intn(100)))
					out = append(out, uint64(i)<<32|uint64(p.Now()))
				}
			})
		}
		k.Drain()
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		diff := false
		for i := range a {
			if a[i] != c[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Property: regardless of scheduling pattern, observed event times are
	// non-decreasing.
	f := func(delays []uint16) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		k := NewKernel(7)
		var times []Cycles
		for _, d := range delays {
			k.Schedule(Cycles(d), func() { times = append(times, k.Now()) })
		}
		k.Drain()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcsDrainCleanly(t *testing.T) {
	k := NewKernel(3)
	total := 0
	for i := 0; i < 100; i++ {
		k.Go(i, "w", Cycles(i), func(p *Proc) {
			for j := 0; j < 10; j++ {
				p.Sleep(7)
			}
			total++
		})
	}
	k.Drain()
	if total != 100 {
		t.Fatalf("finished %d/100 procs", total)
	}
}
