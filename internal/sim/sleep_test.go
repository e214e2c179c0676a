package sim

import (
	"fmt"
	"slices"
	"testing"
)

// statsDelta returns the change in the process-wide kernel counters
// while f runs.
func statsDelta(f func()) Stats {
	before := GlobalStats()
	f()
	after := GlobalStats()
	return Stats{
		EventRecycles: after.EventRecycles - before.EventRecycles,
		ProcResumes:   after.ProcResumes - before.ProcResumes,
		InlineSleeps:  after.InlineSleeps - before.InlineSleeps,
	}
}

// TestInlineSleepBoundaries pins the cases where Sleep must, or may,
// skip scheduling its wake-up. Each case records what the simulation
// observes; the trace is what the schedule-and-park path produces, and
// inline is how many sleeps advance the clock in place. Stop followed
// by Sleep is TestKernelStop's "proc body" case.
func TestInlineSleepBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		run    func(k *Kernel, rec func(string, ...any))
		want   []string
		inline uint64
	}{
		{
			// The callback still has work at t=10 after its Wake, so
			// the woken proc's sleep must not run the clock ahead of
			// it, even though nothing is queued before t=100. The proc
			// was resumed by the Run loop before it parked.
			name: "woken by a callback",
			run: func(k *Kernel, rec func(string, ...any)) {
				p := k.Go(0, "p", 0, func(p *Proc) {
					p.Sleep(1)
					p.Park()
					p.Sleep(5)
					rec("p@%d", p.Now())
				})
				k.Schedule(10, func() {
					p.Wake(1)
					rec("cb@%d", k.Now())
					k.Schedule(1, func() { rec("cb2@%d", k.Now()) })
				})
				k.Schedule(100, func() { rec("last@%d", k.Now()) })
			},
			want: []string{"cb@10", "cb2@11", "p@15", "last@100"},
		},
		{
			// b was resumed by the Run loop, a by b: a's sleep must
			// leave b to finish its instant first.
			name: "woken by another proc",
			run: func(k *Kernel, rec func(string, ...any)) {
				a := k.Go(0, "a", 0, func(p *Proc) {
					p.Park()
					p.Sleep(5)
					rec("a@%d", p.Now())
				})
				k.Go(1, "b", 0, func(p *Proc) {
					p.Sleep(10)
					a.Wake(1)
					rec("b@%d", p.Now())
					p.Sleep(1)
					rec("b@%d", p.Now())
				})
				k.Schedule(100, func() { rec("last@%d", k.Now()) })
			},
			want:   []string{"b@10", "b@11", "a@15", "last@100"},
			inline: 1, // b's second sleep
		},
		{
			// An event already queued at the wake-up time has the lower
			// sequence number and fires first.
			name: "tie with an earlier event",
			run: func(k *Kernel, rec func(string, ...any)) {
				k.Go(0, "p", 0, func(p *Proc) {
					p.Sleep(10)
					p.Sleep(5)
					rec("p@%d", p.Now())
				})
				k.Schedule(15, func() { rec("cb@%d", k.Now()) })
			},
			want: []string{"cb@15", "p@15"},
		},
		{
			// Run(15): a sleep to exactly the limit may go inline; the
			// next one, to until+1, must park so Run returns at 15, and
			// the next Run resumes it.
			name: "run limit",
			run: func(k *Kernel, rec func(string, ...any)) {
				p := k.Go(0, "p", 0, func(p *Proc) {
					p.Sleep(10)
					p.Sleep(5)
					rec("p@%d", p.Now())
					p.Sleep(1)
					rec("p@%d", p.Now())
				})
				end := k.Run(15)
				rec("run@%d %v pending=%d", end, p.State(), k.Pending())
				end = k.Run(0)
				rec("run@%d %v", end, p.State())
			},
			want:   []string{"p@15", "run@15 parked pending=1", "p@16", "run@16 done"},
			inline: 1,
		},
		{
			// A cancelled event at the top of the heap counts as
			// blocking: the sleep takes the queue round trip, with the
			// same result.
			name: "cancelled heap top",
			run: func(k *Kernel, rec func(string, ...any)) {
				ev := k.Schedule(15, func() { rec("cancelled@%d", k.Now()) })
				k.Schedule(30, func() { rec("cb@%d", k.Now()) })
				k.Go(0, "p", 0, func(p *Proc) {
					p.Sleep(10)
					k.Cancel(ev)
					p.Sleep(10)
					rec("p@%d", p.Now())
				})
			},
			want: []string{"p@20", "cb@30"},
		},
		{
			// An inline sleep after a valued wake-up leaves WakeVal
			// zero, as a timer wake-up does; the next sleep ties with
			// an earlier event and parks behind it.
			name: "wake value",
			run: func(k *Kernel, rec func(string, ...any)) {
				p := k.NewProc(0, "p", func(p *Proc) {
					rec("park=%d", p.Park())
					p.Sleep(5)
					rec("p@%d val=%d", p.Now(), p.WakeVal)
					p.Sleep(20)
					rec("p@%d", p.Now())
				})
				k.Schedule(0, p.Start)
				k.Schedule(0, func() { p.WakeAt(10, 7) })
				k.Schedule(35, func() { rec("cb@%d", k.Now()) })
			},
			want:   []string{"park=7", "p@15 val=0", "cb@35", "p@35"},
			inline: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel(1)
			var got []string
			rec := func(f string, args ...any) { got = append(got, fmt.Sprintf(f, args...)) }
			d := statsDelta(func() {
				c.run(k, rec)
				k.Drain()
			})
			if !slices.Equal(got, c.want) {
				t.Errorf("trace %q, want %q", got, c.want)
			}
			if d.InlineSleeps != c.inline {
				t.Errorf("%d inline sleeps, want %d", d.InlineSleeps, c.inline)
			}
		})
	}
}

// TestKernelCounters: a lone sleeper resumed by the Run loop advances
// the clock in place for every sleep after the first, which Start's
// caller resumed; two procs whose wake-ups interleave never can.
func TestKernelCounters(t *testing.T) {
	const n = 100
	t.Run("lone sleeper", func(t *testing.T) {
		k := NewKernel(1)
		k.Go(0, "p", 0, func(p *Proc) {
			p.Sleep(1)
			for i := 0; i < n; i++ {
				p.Sleep(10)
			}
		})
		d := statsDelta(func() { k.Drain() })
		if d.InlineSleeps != n || d.ProcResumes != 2 || d.EventRecycles != 2 {
			t.Errorf("counters %+v, want %d inline sleeps, 2 resumes, 2 recycles", d, n)
		}
		if k.Now() != 1+n*10 || k.seq != n+2 {
			t.Errorf("clock %d seq %d, want %d and %d", k.Now(), k.seq, 1+n*10, n+2)
		}
	})
	t.Run("handoff", func(t *testing.T) {
		k := NewKernel(1)
		body := func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(10)
			}
		}
		k.Go(0, "a", 0, body)
		k.Go(1, "b", 5, body)
		d := statsDelta(func() { k.Drain() })
		if d.InlineSleeps != 0 || d.ProcResumes != 2+2*n {
			t.Errorf("counters %+v, want 0 inline sleeps, %d resumes", d, 2+2*n)
		}
	})
}
