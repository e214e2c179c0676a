package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run's CPU profile (runtime/pprof) is decoded here with a
// minimal reader of the profile.proto wire format, so the benchmark
// needs nothing beyond the standard library. Each sample's CPU time is
// charged to one bucket by its innermost frames (bucketOf).

// modulePrefix is the import path every layer of the program lives
// under; the element after it names the layer's module.
const modulePrefix = "lockin/internal/"

// handoffFuncs are the Go runtime frames of channel operations and
// goroutine switches: the cost of handing control between simulated
// procs (and between HTTP goroutines), which no lockin frame owns.
var handoffFuncs = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.closechan", "runtime.selectgo",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
	"runtime.schedule", "runtime.findRunnable", "runtime.mcall", "runtime.gosched",
	"runtime.goschedImpl", "runtime.execute", "runtime.gogo", "runtime.runqget",
	"runtime.runqput", "runtime.runqgrab", "runtime.runqsteal", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.notesleep", "runtime.notewakeup",
	"runtime.futex", "runtime.futexsleep", "runtime.futexwakeup", "runtime.lock2",
	"runtime.unlock2", "runtime.send", "runtime.recv", "runtime.goexit0",
	"runtime.newproc", "runtime.casgstatus", "runtime.resetspinning", "runtime.checkTimers",
	"runtime.netpoll", "runtime.usleep", "runtime.osyield", "runtime.procyield",
}

// heapFuncs are the simulator kernel's event-queue methods.
var heapFuncs = []string{
	"(*Kernel).push", "(*Kernel).siftDown", "(*Kernel).siftUp", "(*Kernel).popMin",
	"(*Kernel).pop", "(*Kernel).compact", "(*Kernel).alloc", "(*Kernel).recycle",
	"(*Kernel).Schedule", "(*Kernel).ScheduleCall", "(*Kernel).scheduleWake", "(*Kernel).Cancel",
}

// moduleBuckets folds modules into the reported layers.
var moduleBuckets = map[string]string{
	"sim": "sim", "power": "power", "coherence": "coherence", "futex": "futex",
	"sched": "sched", "core": "core", "machine": "machine", "golocks": "core",
	"workload": "workload", "systems": "workload", "scenario": "workload",
	"experiments": "experiments", "sweep": "sweep", "results": "results",
	"metrics": "results", "serve": "serve", "telemetry": "serve", "bench": "serve",
	"fleet": "fleet",
}

// bucketOf charges one sample. stack lists function names innermost
// first. Runtime scheduling and channel frames go to handoff, garbage
// collection to gc, and everything else to the first lockin module on
// the stack, so a runtime or library helper (memmove, encoding/json)
// counts against the layer that called it.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	for _, f := range stack {
		if f == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	if isGC(leaf) {
		return "gc"
	}
	for _, h := range handoffFuncs {
		if leaf == h {
			return "handoff"
		}
	}
	for _, f := range stack {
		rest, ok := strings.CutPrefix(f, modulePrefix)
		if !ok {
			continue
		}
		mod, fn, _ := strings.Cut(rest, ".")
		if mod == "sim" {
			for _, h := range heapFuncs {
				if fn == h {
					return "heap"
				}
			}
		}
		if b, ok := moduleBuckets[mod]; ok {
			return b
		}
		return "other"
	}
	return "other"
}

func isGC(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.scanobject", "runtime.scanblock",
		"runtime.greyobject", "runtime.markBits", "runtime.sweepone", "runtime.bgsweep",
		"runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.findObject", "runtime.wbBuf",
		"runtime.bulkBarrierPreWrite", "runtime.gcDrain", "runtime.markroot", "runtime.scanstack"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// profileShares decodes a gzipped pprof CPU profile and returns each
// bucket's share of the sampled CPU time.
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	totals := map[string]float64{}
	var all float64
	for _, s := range p.samples {
		v := s.value
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locFuncs(id)...)
		}
		totals[bucketOf(stack)] += v
		all += v
	}
	for b := range totals {
		totals[b] /= all
	}
	return totals, nil
}

// pprofProfile is the subset of profile.proto the bucketing reads.
type pprofProfile struct {
	strs    []string
	funcs   map[uint64]int64    // function id -> name string index
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	samples []pprofSample
}

type pprofSample struct {
	locs  []uint64
	value float64 // the last sample value: CPU nanoseconds
}

func (p *pprofProfile) locFuncs(id uint64) []string {
	var out []string
	for _, fid := range p.locs[id] {
		if i := p.funcs[fid]; i >= 0 && int(i) < len(p.strs) {
			out = append(out, p.strs[i])
		}
	}
	return out
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{funcs: map[uint64]int64{}, locs: map[uint64][]uint64{}}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case fProfileString:
			p.strs = append(p.strs, string(msg))
		case fProfileSample:
			var s pprofSample
			var vals []uint64
			if err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, w, v, m)
				case fSampleValue:
					vals = appendVarints(vals, w, v, m)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = float64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(m, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == fLineFunction {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locs[id] = fns
		case fProfileFunction:
			var id uint64
			name := int64(-1)
			if err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = name
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field, which the encoder
// writes either packed (length-delimited) or one varint per element.
func appendVarints(dst []uint64, wire int, v uint64, msg []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		msg = msg[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
