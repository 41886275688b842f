package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// Layers a CPU profile sample is attributed to: the repository package
// nearest the sampled leaf, or gc when any frame of the stack is the
// garbage collector's.
var profileLayers = []string{"netsim", "bridge", "vm", "topo", "workload", "ethernet", "gc", "other"}

const modulePrefix = "github.com/switchware/activebridge/internal/"

// attribute returns the layer of one sample's stack, leaf first.
func attribute(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, modulePrefix) {
			continue
		}
		pkg := fn[len(modulePrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		switch pkg {
		case "netsim", "bridge", "vm", "topo", "workload", "ethernet":
			return pkg
		}
		return "other"
	}
	return "other"
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.wbBuf", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// profileShares decodes a gzipped pprof CPU profile (as runtime/pprof
// writes it) and adds each sample's count to its layer.
func profileShares(data []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		if len(s.values) > 0 {
			into[attribute(stack)] += float64(s.values[0])
		}
	}
	return nil
}

// The subset of profile.proto the attribution needs.
type pprofSample struct {
	locs   []uint64
	values []int64
}

type pprofProfile struct {
	samples  []pprofSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inline frame first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

var errProto = errors.New("malformed profile")

// protoFields calls fn for each field of a protobuf message.
func protoFields(b []byte, fn func(field int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varints decodes a repeated integer field in either packed or
// one-value-per-field form.
func varints(wire int, v uint64, data []byte, into []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(into, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return into, errProto
		}
		into = append(into, x)
		data = data[n:]
	}
	return into, nil
}

func decodeProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := protoFields(b, func(field, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s pprofSample
			err := protoFields(data, func(f, w int, v uint64, d []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = varints(w, v, d, s.locs)
				case 2:
					var vals []uint64
					vals, err = varints(w, v, d, nil)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := protoFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || int(n) >= len(p.strings) {
			return nil, errProto
		}
	}
	return p, nil
}
