package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// replayExperiments are the two experiments the replay workload
// regenerates: ext_evictions sweeps cachesim.BoundedReplay over LRU
// capacities, ext_scale replays 1×, 10× and 100× populations through
// cachesim.Blowup, cachesim.BoundedReplay and cachesim.CacheReplay.
var replayExperiments = []string{"ext_evictions", "ext_scale"}

// extEvictionsReplays is how many BoundedReplay passes ext_evictions
// makes over its trace: eight capacities, with and without ECS.
const extEvictionsReplays = 16

// referenceFile holds the committed seed-1 output of every experiment.
const referenceFile = "results/ecslab_all.txt"

// sections splits ecslab output into its experiment reports, keyed by
// experiment id. A report starts at a line "== <id> — <title> ==" and
// runs to the next such line; trailing blank lines are dropped.
func sections(out string) map[string]string {
	res := map[string]string{}
	id := ""
	var cur []string
	flush := func() {
		if id != "" {
			res[id] = strings.TrimRight(strings.Join(cur, "\n"), "\n") + "\n"
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==") {
			flush()
			id, _, _ = strings.Cut(strings.TrimPrefix(line, "== "), " ")
			cur = nil
		}
		cur = append(cur, line)
	}
	flush()
	return res
}

var (
	numberRE = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?`)
	spaceRE  = regexp.MustCompile(`[ \t]+`)
	dashRE   = regexp.MustCompile(`-{2,}`)
)

// skeleton replaces every number in a report with '#' and collapses
// the padding that depends on number widths, leaving the report's
// structure: its metrics, table headers, row count and notes.
func skeleton(s string) string {
	s = dashRE.ReplaceAllString(s, "--")
	s = numberRE.ReplaceAllString(s, "#")
	return spaceRE.ReplaceAllString(s, " ")
}

// checkReplay checks one regeneration. At seed 1 each report must equal
// the committed reference byte for byte; at other seeds it must have
// the reference's structure and pass the experiments' own shape
// checks.
func checkReplay(out string, seed int64, reference string) []string {
	var problems []string
	got, want := sections(out), sections(reference)
	if len(got) != len(replayExperiments) {
		problems = append(problems, fmt.Sprintf("expected %d reports, got %d", len(replayExperiments), len(got)))
	}
	for _, id := range replayExperiments {
		g, w := got[id], want[id]
		switch {
		case w == "":
			problems = append(problems, fmt.Sprintf("%s missing from %s", id, referenceFile))
		case g == "":
			problems = append(problems, fmt.Sprintf("%s missing from ecslab output", id))
		case seed == 1 && g != w:
			problems = append(problems, fmt.Sprintf("%s differs from %s at seed 1", id, referenceFile))
		case skeleton(g) != skeleton(w):
			problems = append(problems, fmt.Sprintf("%s does not have the reference report's structure", id))
		}
	}
	if err := checkScaleShape(got["ext_scale"]); err != nil {
		problems = append(problems, err.Error())
	}
	return problems
}

// scaleRows parses ext_scale's population table: population multiplier,
// queries, real-cache and model evictions per 100 queries.
func scaleRows(report string) (queries []int64, real, model []float64, err error) {
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) != 8 || (f[0] != "1" && f[0] != "10" && f[0] != "100") {
			continue
		}
		q, err1 := strconv.ParseInt(f[2], 10, 64)
		re, err2 := strconv.ParseFloat(f[6], 64)
		mo, err3 := strconv.ParseFloat(f[7], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, nil, nil, fmt.Errorf("ext_scale: bad row %q", line)
		}
		queries, real, model = append(queries, q), append(real, re), append(model, mo)
	}
	if len(queries) != 3 {
		return nil, nil, nil, fmt.Errorf("ext_scale: expected 3 population rows, found %d", len(queries))
	}
	return queries, real, model, nil
}

// checkScaleShape applies ext_scale's own acceptance shape: the real
// cache and the LRU model agree within 3x on eviction pressure, and
// pressure grows with the population.
func checkScaleShape(report string) error {
	_, real, model, err := scaleRows(report)
	if err != nil {
		return err
	}
	for i := range real {
		if real[i] > 3*model[i] || model[i] > 3*real[i] {
			return fmt.Errorf("ext_scale: real %.2f and model %.2f evictions/100q disagree", real[i], model[i])
		}
	}
	if !(real[0] < real[1] && real[1] < real[2]) {
		return errors.New("ext_scale: evictions do not grow with the population")
	}
	return nil
}

// replayRecords counts the trace records one regeneration replays
// through a cache model: ext_scale replays each population three ways,
// and ext_evictions replays the 10x-population-sized all-names trace
// (its unscaled default) once per capacity and mode.
func replayRecords(out string) (int64, error) {
	queries, _, _, err := scaleRows(sections(out)["ext_scale"])
	if err != nil {
		return 0, err
	}
	return 3*(queries[0]+queries[1]+queries[2]) + extEvictionsReplays*queries[1], nil
}

// regeneration is one timed ecslab run.
type regeneration struct {
	wall   time.Duration
	cpu    time.Duration
	maxRSS int64 // KB
	out    string
}

func runEcslab(e env, args ...string) (regeneration, error) {
	var g regeneration
	cmd := exec.Command(e.binary("ecslab"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := runTracked(cmd)
	g.wall = time.Since(t0)
	if err != nil {
		return g, fmt.Errorf("ecslab %s: %v: %s", strings.Join(args, " "), err, lastLines(stderr.String(), 3))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		g.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		g.maxRSS = ru.Maxrss
	}
	g.out = stdout.String()
	return g, nil
}

func replay(e env) (*run, error) {
	r := newRun()
	reference, err := os.ReadFile(filepath.Join(e.root, referenceFile))
	if err != nil {
		return nil, err
	}
	// Set-up: launch ecslab until it answers (lists its experiments).
	var times []float64
	for k := 0; k < authSetups; k++ {
		g, err := runEcslab(e, "list")
		if err != nil {
			return nil, err
		}
		for _, id := range replayExperiments {
			if !strings.Contains(g.out, id+"\n") {
				return nil, fmt.Errorf("ecslab list does not offer %s", id)
			}
		}
		times = append(times, g.wall.Seconds())
	}
	r.set("setup_s", "s", median(times))

	args := append([]string{"-seed", strconv.FormatInt(e.seed, 10)}, replayExperiments...)
	var (
		regs       []regeneration
		walls      []float64
		cpu        time.Duration
		maxRSS     int64
		records    int64
		start      = time.Now()
		firstOut   string
		recsPerRun int64
	)
	// Regenerate while another regeneration fits in the run's time.
	for len(regs) == 0 || time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= e.seconds {
		probeHost(3)
		stop := make(chan struct{})
		during := probeWhile(stop)
		g, err := runEcslab(e, args...)
		close(stop)
		hostSpeed.probes = append(hostSpeed.probes, <-during...)
		if err != nil {
			return nil, err
		}
		r.res.Attempted++
		problems := checkReplay(g.out, e.seed, string(reference))
		if firstOut == "" {
			firstOut = g.out
			if recsPerRun, err = replayRecords(g.out); err != nil {
				problems = append(problems, err.Error())
			}
		} else if g.out != firstOut {
			problems = append(problems, "two regenerations at the same seed differ")
		}
		if len(problems) > 0 {
			r.res.Failed++
			r.problems = append(r.problems, problems...)
		}
		regs = append(regs, g)
		walls = append(walls, g.wall.Seconds())
		cpu += g.cpu
		records += recsPerRun
		if g.maxRSS > maxRSS {
			maxRSS = g.maxRSS
		}
	}
	probeHost(3)
	wall := median(walls)
	r.set("wall_s", "s", wall)
	r.set("p50_ms", "ms", 1000*percentile(append([]float64(nil), walls...), 0.5))
	r.set("p99_ms", "ms", 1000*percentile(append([]float64(nil), walls...), 0.99))
	r.set("qps", "1/s", float64(recsPerRun)/wall)
	r.set("cpu_us_per_q", "us", float64(cpu)/float64(time.Microsecond)/float64(records))
	r.set("rss_mb", "MB", float64(maxRSS)/1024)
	r.set("answered_ratio", "ratio", float64(r.res.Attempted-r.res.Failed)/float64(r.res.Attempted))
	r.info["regenerations"] = len(regs)
	r.info["records_per_regeneration"] = recsPerRun
	return r, nil
}
