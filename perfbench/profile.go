package main

// CPU-profile attribution without the pprof library: the runtime writes
// a gzip-compressed profile.proto message, and the few fields needed to
// walk each sample's stack (sample, location, line, function and the
// string table) are decoded here from the protobuf wire format.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one decoded sample: its weight and the function names of
// its stack, innermost first (inlined frames expanded).
type profSample struct {
	Count int64
	Funcs []string
}

// pbField is one protobuf field: its number, wire type and either its
// varint/fixed value or its length-delimited payload.
type pbField struct {
	Num  uint64
	Type uint64
	Val  uint64
	Data []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field tag")
		}
		b = b[n:]
		f := pbField{Num: tag >> 3, Type: tag & 7}
		switch f.Type {
		case 0:
			f.Val, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			f.Val, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length-delimited field")
			}
			f.Data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			f.Val, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.Type)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbVarints returns a repeated varint field's values, packed or not.
func pbVarints(f pbField) ([]uint64, error) {
	if f.Type == 0 {
		return []uint64{f.Val}, nil
	}
	var out []uint64
	for b := f.Data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzip-compressed (or raw) profile.proto message
// into its samples. Each sample's weight is its first value, the sample
// count for CPU profiles.
func parseProfile(data []byte) ([]profSample, error) {
	if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	top, err := pbFields(data)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]uint64{}   // function id -> string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		rawSample [][]byte
	)
	for _, f := range top {
		switch f.Num {
		case 2:
			rawSample = append(rawSample, f.Data)
		case 4: // Location
			fs, err := pbFields(f.Data)
			if err != nil {
				return nil, fmt.Errorf("profile location: %w", err)
			}
			var id uint64
			var fns []uint64
			for _, lf := range fs {
				switch lf.Num {
				case 1:
					id = lf.Val
				case 4: // Line
					ls, err := pbFields(lf.Data)
					if err != nil {
						return nil, fmt.Errorf("profile line: %w", err)
					}
					for _, l := range ls {
						if l.Num == 1 {
							fns = append(fns, l.Val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			fs, err := pbFields(f.Data)
			if err != nil {
				return nil, fmt.Errorf("profile function: %w", err)
			}
			var id, name uint64
			for _, ff := range fs {
				switch ff.Num {
				case 1:
					id = ff.Val
				case 2:
					name = ff.Val
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.Data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]profSample, 0, len(rawSample))
	for _, raw := range rawSample {
		fs, err := pbFields(raw)
		if err != nil {
			return nil, fmt.Errorf("profile sample: %w", err)
		}
		var s profSample
		haveValue := false
		for _, f := range fs {
			vs, err := pbVarints(f)
			if err != nil {
				return nil, fmt.Errorf("profile sample: %w", err)
			}
			switch f.Num {
			case 1:
				for _, loc := range vs {
					for _, fn := range locFuncs[loc] {
						s.Funcs = append(s.Funcs, str(funcName[fn]))
					}
				}
			case 2:
				if !haveValue && len(vs) > 0 {
					s.Count, haveValue = int64(vs[0]), true
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// layerOf maps a function name to the bulkpim layer (package) it belongs
// to: "bulkpim" for the root package, the package name under internal/
// (workload packages by their own name), or "" for code outside bulkpim.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	if pkg == "bulkpim" {
		return "bulkpim"
	}
	rest, ok := strings.CutPrefix(pkg, "bulkpim/internal/")
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "workload/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// layerSamples assigns each sample to the layer of its innermost
// bulkpim frame and returns the samples per layer: "runtime" for samples
// with no bulkpim frame, "other_bulkpim" for layers outside known.
func layerSamples(samples []profSample, known []string) map[string]int64 {
	isKnown := map[string]bool{}
	for _, l := range known {
		isKnown[l] = true
	}
	counts := map[string]int64{}
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.Funcs {
			if l := layerOf(fn); l != "" {
				layer = l
				if !isKnown[l] {
					layer = "other_bulkpim"
				}
				break
			}
		}
		counts[layer] += s.Count
	}
	return counts
}

// shares turns samples per layer into each known layer's share of all
// samples in percent, keyed "<layer>.self_pct", plus "runtime.other_pct",
// and returns the total.
func shares(counts map[string]int64, known []string) (map[string]float64, int64) {
	var total int64
	for _, n := range counts {
		total += n
	}
	pct := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	out := map[string]float64{"runtime.other_pct": pct(counts["runtime"])}
	for _, l := range known {
		out[l+".self_pct"] = pct(counts[l])
	}
	return out, total
}
