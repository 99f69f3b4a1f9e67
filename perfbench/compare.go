package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareMain reads the saved output of base and head runs (one or more
// runs per file) and prints, per workload and metric, the median of each
// side and head's change. It refuses results whose host fingerprints
// differ: a number only counts against one measured on the same host.
//
//	perfbench compare base.out head.out
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare <base-output> <head-output>")
	}
	base, err := readReports(args[0])
	if err != nil {
		return err
	}
	head, err := readReports(args[1])
	if err != nil {
		return err
	}
	if err := sameHost(append(append([]reportLine(nil), base...), head...)); err != nil {
		return err
	}
	type key struct{ workload, metric string }
	vals := map[key][2][]float64{}
	units := map[string]string{}
	for side, reps := range [2][]reportLine{base, head} {
		for _, r := range reps {
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				v := vals[k]
				v[side] = append(v[side], m.Value)
				vals[k] = v
				units[name] = m.Unit
			}
		}
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-20s %-34s %14s %14s %9s  runs\n", "workload", "metric", "base", "head", "change")
	for _, k := range keys {
		v := vals[k]
		if len(v[0]) == 0 || len(v[1]) == 0 {
			continue
		}
		b, h := median(v[0]), median(v[1])
		change := "-"
		if b != 0 {
			change = fmt.Sprintf("%+.1f%%", (h/b-1)*100)
		}
		fmt.Fprintf(w, "%-20s %-34s %14.6g %14.6g %9s  %d/%d %s\n",
			k.workload, k.metric, b, h, change, len(v[0]), len(v[1]), units[k.metric])
	}
	return nil
}

// sameHost returns an error unless every report has one host fingerprint.
func sameHost(reps []reportLine) error {
	for _, r := range reps[1:] {
		if r.Fingerprint.Host() != reps[0].Fingerprint.Host() {
			return fmt.Errorf("refusing to compare results from different hosts: %+v vs %+v",
				reps[0].Fingerprint.Host(), r.Fingerprint.Host())
		}
	}
	return nil
}

// readReports collects the report lines from a file of saved outputs.
func readReports(path string) ([]reportLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reps []reportLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"schema":"`+reportSchema+`"`) {
			continue
		}
		var r reportLine
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("%s: no %s report lines", path, reportSchema)
	}
	return reps, nil
}
