package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare mode reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRuns reads a directory of saved run outputs named
// <workload>.<anything>.json; each file's last line is a result.
func loadRuns(dir string) (map[string][]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	runs := map[string][]result{}
	for _, f := range files {
		wl, _, _ := strings.Cut(filepath.Base(f), ".")
		res, err := lastResult(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		runs[wl] = append(runs[wl], res)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no <workload>.*.json run outputs in %s", dir)
	}
	return runs, nil
}

func lastResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}

// quartiles returns the first quartile, median and third quartile with the
// same method as Python's statistics.quantiles(n=4) (exclusive).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		i := int(pos)
		frac := pos - float64(i)
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return at(1), at(2), at(3)
}

// compareRuns prints, per workload and end-to-end metric, each side's
// median and quartiles and a verdict: "better" or "worse" when the change's
// median moved beyond the metric's bound in that direction, "unresolved"
// when either side's spread (quartile distance over median) exceeds the
// bound, "same" otherwise.
func compareRuns(specPath, baseDir, changeDir string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := loadRuns(baseDir)
	if err != nil {
		return err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return err
	}
	var wls []string
	for wl := range base {
		if _, ok := change[wl]; ok {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-12s %-18s %-34s %-34s %s\n", "workload", "metric", "base q1/median/q3", "change q1/median/q3", "verdict")
	for _, wl := range wls {
		for _, m := range sp.EndToEnd {
			b := values(base[wl], m.Name)
			c := values(change[wl], m.Name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			b1, b2, b3 := quartiles(b)
			c1, c2, c3 := quartiles(c)
			verdict := "same"
			delta := ratio(c2-b2, b2)
			if m.Better == "higher" {
				delta = -delta
			}
			switch {
			case ratio(b3-b1, b2) > m.Bound || ratio(c3-c1, c2) > m.Bound:
				verdict = "unresolved"
			case delta > m.Bound:
				verdict = "worse"
			case delta < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-12s %-18s %10.4g/%10.4g/%10.4g  %10.4g/%10.4g/%10.4g  %s (%+.1f%% %s, bound %.0f%%)\n",
				wl, m.Name, b1, b2, b3, c1, c2, c3, verdict, 100*ratio(c2-b2, b2), m.Unit, 100*m.Bound)
		}
	}
	return nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
