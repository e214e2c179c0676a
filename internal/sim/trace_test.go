package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// Trace record operations.
const (
	opSleep byte = iota + 1
	opPark
	opWake
	opWoke
	opDraw
	opSchedule
	opCancel
	opStop
	opCall
	opCallAfterWake
	opStart
	opRunEnd
)

// tracePinned holds, per program seed, the hash of the trace that
// runTraceProgram produces. The values were recorded from the kernel
// before the inline self-wake path existed, so any change to the order
// of events, wake-ups, clock readings or RNG draws fails the test.
var tracePinned = map[int64]uint64{
	1: 0x4cfb552327fd2685,
	2: 0x8098fe1efd0360ee,
	3: 0x13767eb9bc81f17e,
	4: 0x10290648dc9eb37c,
	5: 0x5ad6b495eff6e472,
	6: 0x74c676f8a137dc51,
	7: 0xdd2ce63c292aa29c,
	8: 0xb72389d939f727ad,
}

// TestKernelTracePinned runs random simulation programs — procs that
// sleep, park with and without timeouts, wake each other and draw
// randomness; callbacks that wake procs and then keep scheduling and
// drawing; cancels; Run(until) slices and Stop — and compares a hash of
// the (Now, actor, op, value) trace with a pinned constant.
func TestKernelTracePinned(t *testing.T) {
	for seed, want := range tracePinned {
		if got := runTraceProgram(seed); got != want {
			t.Errorf("seed %d: trace hash %#x, want %#x", seed, got, want)
		}
	}
}

// runTraceProgram builds and runs one random program and returns the
// FNV-1a hash of its trace. The program's shape comes from its own
// generator g; the kernel's RNG is drawn only as part of the program.
func runTraceProgram(seed int64) uint64 {
	g := rand.New(rand.NewSource(seed))
	k := NewKernel(seed)
	h := fnv.New64a()
	var buf [25]byte
	log := func(actor int, op byte, val uint64) {
		binary.LittleEndian.PutUint64(buf[0:], uint64(k.Now()))
		binary.LittleEndian.PutUint64(buf[8:], uint64(int64(actor)))
		buf[16] = op
		binary.LittleEndian.PutUint64(buf[17:], val)
		h.Write(buf[:])
	}

	n := 3 + g.Intn(4)
	procs := make([]*Proc, n)
	waiting := make([]bool, n) // parked in Park, so safe to Wake
	var events []Event
	budget := 400 // callbacks left to schedule

	// wakeSome wakes a random proc that is parked in Park, if any.
	wakeSome := func(actor int) {
		j := g.Intn(n)
		if !waiting[j] {
			return
		}
		v := uint64(1 + g.Intn(50))
		log(actor, opWake, uint64(j)<<8|v)
		procs[j].Wake(v)
		log(actor, opWoke, uint64(j))
	}
	var callback func(id int) func()
	schedule := func(actor int) {
		if budget == 0 {
			return
		}
		budget--
		d := Cycles(g.Intn(25))
		id := 1000 + len(events)
		log(actor, opSchedule, uint64(id)<<16|uint64(d))
		events = append(events, k.Schedule(d, callback(id)))
	}
	callback = func(id int) func() {
		return func() {
			log(id, opCall, 0)
			wakeSome(id)
			log(id, opCallAfterWake, 0)
			switch g.Intn(5) {
			case 0:
				log(id, opDraw, uint64(k.Rand().Intn(1000)))
			case 1:
				schedule(id)
			case 2:
				log(id, opDraw, uint64(k.Rand().Intn(1000)))
				schedule(id)
			case 3:
				if g.Intn(6) == 0 {
					k.Stop()
					log(id, opStop, 0)
				}
			}
		}
	}

	body := func(i int) func(*Proc) {
		return func(p *Proc) {
			steps := 60 + g.Intn(120)
			for s := 0; s < steps; s++ {
				switch op := g.Intn(20); {
				case op < 8:
					d := Cycles(g.Intn(12))
					if g.Intn(4) == 0 {
						d = 1
					}
					p.Sleep(d)
					log(i, opSleep, uint64(d))
				case op < 10:
					// Park with a timeout; a wake by another actor
					// cancels the timer.
					ev := p.WakeAt(Cycles(1+g.Intn(30)), 99)
					waiting[i] = true
					v := p.Park()
					waiting[i] = false
					if v != 99 {
						k.Cancel(ev)
					}
					log(i, opPark, v)
				case op == 10:
					if g.Intn(4) == 0 { // may strand the proc for good
						waiting[i] = true
						v := p.Park()
						waiting[i] = false
						log(i, opPark, v)
					}
				case op < 13:
					wakeSome(i)
				case op < 15:
					log(i, opDraw, uint64(k.Rand().Intn(1000)))
				case op < 17:
					schedule(i)
				case op < 19:
					if len(events) > 0 {
						j := g.Intn(len(events))
						k.Cancel(events[j])
						log(i, opCancel, uint64(j))
					}
				default:
					if g.Intn(3) == 0 {
						k.Stop()
						log(i, opStop, 0)
					}
				}
			}
		}
	}
	for i := range procs {
		if i%2 == 0 {
			procs[i] = k.Go(i, "p", Cycles(g.Intn(10)), body(i))
			continue
		}
		p := k.NewProc(i, "p", body(i))
		procs[i] = p
		k.Schedule(Cycles(g.Intn(10)), func() {
			p.Start()
			log(-1, opStart, uint64(p.ID()))
			log(-1, opDraw, uint64(k.Rand().Intn(1000)))
		})
	}

	for k.Pending() > 0 {
		until := Cycles(0)
		if g.Intn(3) != 0 {
			until = k.Now() + Cycles(1+g.Intn(40))
		}
		end := k.Run(until)
		log(-2, opRunEnd, uint64(end)<<16|uint64(k.Pending()))
	}
	return h.Sum64()
}
