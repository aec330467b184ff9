package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuShares maps a cpu.* metric to the function-name prefixes whose
// self-time it sums. A sample belongs to the innermost function of its
// leaf frame; cpu.runtime_gc_frac instead takes every sample with a
// collector entry point anywhere on its stack.
var cpuShares = map[string][]string{
	"cpu.core_frac":    {"stz/internal/core."},
	"cpu.huffman_frac": {"stz/internal/huffman."},
	"cpu.sz3_frac":     {"stz/internal/sz3."},
	"cpu.codec_frac":   {"stz/internal/codec.", "stz/internal/container."},
	"cpu.stzd_frac":    {"stz/internal/stzd."},
	"cpu.nethttp_frac": {"net/http.", "net/http/", "net/textproto.", "net.", "bufio."},
}

var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkTermination"}

// startCPUProfile profiles into memory; the returned stop function ends
// the profile and returns the per-package CPU shares.
func startCPUProfile() (stop func() map[string]float64) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return func() map[string]float64 { return nil }
	}
	return func() map[string]float64 {
		pprof.StopCPUProfile()
		return cpuProfileShares(buf.Bytes())
	}
}

// pbField is one field of a protobuf message: wire type 0 carries num,
// wire type 2 carries data.
type pbField struct {
	tag  int
	num  uint64
	data []byte
}

// pbFields splits a message into its fields; fixed-width fields are
// skipped, the profile schema read here uses none.
func pbFields(b []byte) []pbField {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return out
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.num, n = binary.Uvarint(b)
			if n <= 0 {
				return out
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return out
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 1:
			b = b[min(8, len(b)):]
			continue
		case 5:
			b = b[min(4, len(b)):]
			continue
		default:
			return out
		}
		out = append(out, f)
	}
	return out
}

// pbVarints reads a repeated integer field, packed or not.
func pbVarints(f pbField) []uint64 {
	if f.data == nil {
		return []uint64{f.num}
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out, b = append(out, v), b[n:]
	}
	return out
}

// cpuProfileShares decodes a gzipped pprof profile (profile.proto: 2 =
// sample{1 location_id, 2 value}, 4 = location{1 id, 4 line{1
// function_id}}, 5 = function{1 id, 2 name}, 6 = string_table) far enough
// to attribute each sample to a function name.
func cpuProfileShares(gz []byte) map[string]float64 {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil
	}
	type sample struct {
		locs  []uint64
		count uint64
	}
	var samples []sample
	var strs []string
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	funcName := map[uint64]uint64{}   // function id → string index
	for _, f := range pbFields(raw) {
		switch f.tag {
		case 2:
			var s sample
			for _, sf := range pbFields(f.data) {
				switch sf.tag {
				case 1:
					s.locs = append(s.locs, pbVarints(sf)...)
				case 2:
					if s.count == 0 {
						s.count = pbVarints(sf)[0]
					}
				}
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			for _, lf := range pbFields(f.data) {
				switch lf.tag {
				case 1:
					id = lf.num
				case 4:
					for _, ln := range pbFields(lf.data) {
						if ln.tag == 1 {
							fns = append(fns, ln.num)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5:
			var id, name uint64
			for _, ff := range pbFields(f.data) {
				switch ff.tag {
				case 1:
					id = ff.num
				case 2:
					name = ff.num
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	name := func(fn uint64) string {
		if i := funcName[fn]; i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}

	out := map[string]float64{"cpu.runtime_gc_frac": 0}
	for k := range cpuShares {
		out[k] = 0
	}
	var total float64
	for _, s := range samples {
		total += float64(s.count)
		if len(s.locs) == 0 {
			continue
		}
		if fns := locFuncs[s.locs[0]]; len(fns) > 0 {
			leaf := name(fns[0])
			for k, prefixes := range cpuShares {
				for _, p := range prefixes {
					if strings.HasPrefix(leaf, p) {
						out[k] += float64(s.count)
					}
				}
			}
		}
	gc:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				for _, root := range gcRoots {
					if strings.HasPrefix(name(fn), root) {
						out["cpu.runtime_gc_frac"] += float64(s.count)
						break gc
					}
				}
			}
		}
	}
	for k := range out {
		out[k] = frac(out[k], total)
	}
	return out
}
