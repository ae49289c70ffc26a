package main

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuPackages are the program packages whose CPU share the suite reports,
// plus "gc" for the garbage collector's background and assist work.
var cpuPackages = []string{"radio", "decay", "graph", "core", "cluster", "vnet", "lbnet", "gc"}

// gcRoots mark a stack as garbage-collector work wherever they appear.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// cpuShares reads a CPU profile and returns each cpuPackages entry's share
// of all samples. A sample belongs to the innermost repro/internal package
// on its stack, so runtime work a package calls (allocation, map access) is
// charged to that package; GC work is charged to "gc".
func cpuShares(path string) (map[string]float64, int, error) {
	p, err := readProfile(path)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		if pkg := p.attribute(s.locs); pkg != "" {
			counts[pkg] += n
		}
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("CPU profile %s holds no samples", path)
	}
	shares := map[string]float64{}
	for _, pkg := range cpuPackages {
		shares[pkg] = float64(counts[pkg]) / float64(total)
	}
	return shares, int(total), nil
}

func (p *profile) attribute(locs []uint64) string {
	var names []string
	for _, id := range locs {
		for _, fn := range p.locations[id] {
			names = append(names, p.strings[p.functions[fn]])
		}
	}
	for _, name := range names {
		for _, r := range gcRoots {
			if name == r {
				return "gc"
			}
		}
	}
	for _, name := range names {
		if rest, ok := strings.CutPrefix(name, "repro/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			return pkg
		}
	}
	return ""
}

// profile is the part of a pprof profile.proto the shares need.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func readProfile(path string) (*profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile %s: %w", path, err)
	}
	for _, name := range p.functions {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, fmt.Errorf("decoding CPU profile %s: function name index %d out of range", path, name)
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := varint(data)
		if n == 0 {
			return fmt.Errorf("truncated field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(data)
			if n == 0 {
				return fmt.Errorf("truncated varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("truncated fixed64")
			}
			data = data[8:]
			continue
		case 2:
			l, n := varint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("truncated bytes field")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("truncated fixed32")
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// value) or packed (bytes).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
