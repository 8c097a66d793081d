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

// profileLayers are the shares cpuShares reports, each the fraction of the
// profile's CPU time charged to that layer.
var profileLayers = []string{"silicon", "board", "characterize", "engine", "store", "server", "fed", "gc", "other"}

// moduleLayer maps each repro/internal module to the layer it is charged
// to: the board layer is the assembled rig (BRAM pool, regulator, PMBus,
// chamber, meter), and FVM extraction is the tail of a characterization.
// Modules absent here (utilities such as prng or stats) are skipped, so a
// sample lands on the innermost layer that called them.
var moduleLayer = map[string]string{
	"silicon":      "silicon",
	"board":        "board",
	"bram":         "board",
	"pmbus":        "board",
	"voltage":      "board",
	"thermal":      "board",
	"power":        "board",
	"characterize": "characterize",
	"fvm":          "characterize",
	"engine":       "engine",
	"store":        "store",
	"server":       "server",
	"fed":          "fed",
}

// layerOfStack charges one sample: to gc when any frame is the garbage
// collector's, else to the innermost frame's layer, else to other. funcs
// lists the stack's function names, innermost first.
func layerOfStack(funcs []string) string {
	for _, f := range funcs {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "gc"
		}
	}
	for _, f := range funcs {
		rest, ok := strings.CutPrefix(f, "repro/internal/")
		if !ok {
			continue
		}
		mod, _, _ := strings.Cut(rest, ".")
		mod, _, _ = strings.Cut(mod, "/")
		if l, ok := moduleLayer[mod]; ok {
			return l
		}
	}
	return "other"
}

// cpuShares decodes a runtime/pprof CPU profile and returns each layer's
// share of its CPU time, and the number of samples.
func cpuShares(prof []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	by := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		var funcs []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				funcs = append(funcs, p.strings[p.funcName[fid]])
			}
		}
		v := float64(s.value)
		by[layerOfStack(funcs)] += v
		total += v
	}
	if total > 0 {
		for l := range by {
			by[l] /= total
		}
	}
	return by, len(p.samples), nil
}

// profile is the part of profile.proto cpuShares needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // location ids, leaf first
	value int64    // the last sample value: CPU nanoseconds
}

var errProto = errors.New("malformed protobuf")

// fields walks one protobuf message, calling fn with each field's number,
// and either its varint/fixed value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte, isBytes bool) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var data []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data, typ == 2); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field's values, packed or not.
func varints(dst []uint64, v uint64, data []byte, isBytes bool) ([]uint64, error) {
	if !isBytes {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, _ uint64, data []byte, _ bool) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			err := fields(data, func(num int, v uint64, data []byte, isBytes bool) error {
				var err error
				switch num {
				case 1:
					s.locs, err = varints(s.locs, v, data, isBytes)
				case 2:
					vals, err = varints(vals, v, data, isBytes)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(data, func(num int, v uint64, data []byte, _ bool) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num int, v uint64, _ []byte, _ bool) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte, _ bool) error {
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
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}
