package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// A small reader of the pprof profile protobuf (profile.proto), enough
// to fold a CPU profile into per-layer shares without a module
// dependency. Only the fields named below are decoded.

// profileStacks decodes a gzipped CPU profile into one entry per
// sample: the function names leaf first, and the sample's last value
// (CPU nanoseconds).
func profileStacks(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type location struct{ funcs []uint64 } // innermost (inlined leaf) first
	locs := map[uint64]location{}
	funcName := map[uint64]int64{} // function id -> string table index
	var strs []string
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var samples []rawSample

	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					s.locs = appendVarints(s.locs, v, b)
				case 2: // value
					for _, u := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var l location
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 { // function_id
							l.funcs = append(l.funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = l
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{ns: s.values[len(s.values)-1]}
		for _, id := range s.locs {
			for _, fn := range locs[id].funcs {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

type stackSample struct {
	funcs []string // leaf first
	ns    int64
}

var errProto = errors.New("perf: malformed profile protobuf")

// eachField walks one protobuf message. For varint fields b is nil and
// v the value; for length-delimited fields b is the payload.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding:
// one value (b nil) or a packed run.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/sim.(*Engine).Step" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Stack markers for the three runtime buckets. A sample is GC work when
// any frame is one of the collector's entry points, scheduler work
// when any frame is one of the scheduler's, and kernel time when its
// leaf is a system-call stub.
var (
	gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination", "runtime.gcMarkDone"}
	schedFrames = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goschedImpl",
		"runtime.mstart", "runtime.wakep", "runtime.ready", "runtime.goready", "runtime.startm", "runtime.stopm"}
	syscallPkgs   = []string{"syscall", "internal/runtime/syscall", "runtime/internal/syscall"}
	syscallLeaves = []string{"runtime.futex", "runtime.epollwait", "runtime.usleep", "runtime.write1", "runtime.read",
		"runtime.madvise", "runtime.sysmon", "runtime.osyield", "runtime.tgkill"}
)

// classify assigns one sample to a cpu_share bucket. Kernel time, GC
// and scheduler work are recognised first, from the stack. Everything
// else is charged to the package of the leaf function when that is one
// of the repo's layers or the benchmark itself; a leaf in the runtime
// or the standard library (memmove, map access, mallocgc, net, time) is
// charged to the nearest caller that is, because that caller chose to
// do the work. Samples with no such caller are "other".
func classify(st stackSample) string {
	if len(st.funcs) == 0 {
		return "other"
	}
	leaf := st.funcs[0]
	for _, p := range syscallPkgs {
		if funcPackage(leaf) == p {
			return "runtime.syscall"
		}
	}
	for _, f := range syscallLeaves {
		if leaf == f {
			return "runtime.syscall"
		}
	}
	for _, f := range st.funcs {
		for _, m := range gcFrames {
			if f == m {
				return "runtime.gc"
			}
		}
	}
	for _, f := range st.funcs {
		if bucket := layerOf(funcPackage(f)); bucket != "" {
			return bucket
		}
	}
	for _, f := range st.funcs {
		for _, m := range schedFrames {
			if f == m {
				return "runtime.sched"
			}
		}
	}
	return "other"
}

// layerOf maps an import path to its cpu_share bucket, "" when it is
// none of the measured layers. The root package (dat.Peer and friends)
// is glue over the layers and has no row of its own, so it counts as
// "other" only when nothing below it is a layer — which layerOf's
// caller handles by walking on up the stack.
func layerOf(pkg string) string {
	if pkg == "main" || pkg == "repro/perf" {
		return "perf"
	}
	const prefix = "repro/internal/"
	if !strings.HasPrefix(pkg, prefix) {
		return ""
	}
	name := pkg[len(prefix):]
	for _, l := range layers {
		if name == l {
			return l
		}
	}
	return ""
}

// foldProfile turns a CPU profile into shares per bucket that sum to 1.
func foldProfile(gz []byte) (map[string]float64, error) {
	stacks, err := profileStacks(gz)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, st := range stacks {
		shares[classify(st)] += float64(st.ns)
		total += float64(st.ns)
	}
	if total == 0 {
		return nil, errors.New("perf: CPU profile has no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}
