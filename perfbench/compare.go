package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare reads the record lines of two captured sets of runs and prints,
// per workload and metric, each side's median and the change. It refuses
// when any record was measured on another host or toolchain than the
// first, since such numbers are not comparable.
func compare(w io.Writer, files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("usage: compare A B (files holding the stdout of perfbench runs)")
	}
	sets := make([][]record, 2)
	for i, f := range files {
		recs, err := readRecords(f)
		if err != nil {
			return err
		}
		if len(recs) == 0 {
			return fmt.Errorf("%s holds no result records", f)
		}
		sets[i] = recs
	}
	ref := sets[0][0].Host
	for i, recs := range sets {
		for _, r := range recs {
			if !r.Host.sameMachine(ref) {
				return fmt.Errorf("%s: record measured on %+v, not %+v: results from different hosts are not comparable", files[i], r.Host, ref)
			}
		}
	}
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	var keys []key
	for i, recs := range sets {
		for _, r := range recs {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				if i == 0 && vals[0][k] == nil {
					keys = append(keys, k)
				}
				vals[i][k] = append(vals[i][k], m.Value)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-16s %-34s %12s %12s %8s\n", "workload", "metric", "A median", "B median", "change")
	for _, k := range keys {
		a, b := vals[0][k], vals[1][k]
		if len(b) == 0 {
			continue
		}
		ma, mb := median(a), median(b)
		change := "n/a"
		if ma != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
		}
		fmt.Fprintf(w, "%-16s %-34s %12.4g %12.4g %8s  (n=%d/%d)\n", k.workload, k.metric, ma, mb, change, len(a), len(b))
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var l struct {
			Record *record `json:"record"`
		}
		if json.Unmarshal(sc.Bytes(), &l) == nil && l.Record != nil {
			out = append(out, *l.Record)
		}
	}
	return out, sc.Err()
}

// median of a small set of run-level values: the middle value, or the mean
// of the two middle ones.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
