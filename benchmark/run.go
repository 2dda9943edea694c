package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workRoot, below the directory the benchmark is started in, is where a run
// writes: generated inputs and job outputs (removed when the run ends) and
// the trace files (kept).
const workRoot = ".bench_work"

// setupRepeats is how often each input set is generated; setup_s is the
// median.
const setupRepeats = 9

type options struct {
	workloads []*workload
	scale     string
	seed      int64
	// seconds is how long each workload's timed jobs run; repeats, when
	// positive, fixes their number instead.
	seconds float64
	repeats int
	trace   bool
	// workDir receives everything the run writes.
	workDir string
}

// stat summarises the samples of one end-to-end metric.
type stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func newStat(unit string, samples []float64) stat {
	return stat{Unit: unit, Median: median(samples), Min: minOf(samples), Max: maxOf(samples), N: len(samples), Samples: samples}
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name        string `json:"name"`
	InputSHA256 string `json:"input_sha256"`
	// Work is the stated input size, in WorkUnit, behind work_per_s.
	Work     int    `json:"work"`
	WorkUnit string `json:"work_unit"`
	// Attempted and Failed count oracle checks over all timed jobs; their
	// quotient is the fail ratio.
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	LeakedFiles int                `json:"leaked_files"`
	EndToEnd    map[string]stat    `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

// correct reports whether every output matched the oracle and no child left
// a file behind.
func (w workloadResult) correct() bool { return w.Failed == 0 && w.LeakedFiles == 0 }

// environment is stamped into every result.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

// result is the content of an -out file.
type result struct {
	Env   environment `json:"env"`
	Seed  int64       `json:"seed"`
	Scale string      `json:"scale"`
	// TimingsUnresolved is set when the machine has fewer cores than the
	// jobs have compute ranks: counts are good, timings are not.
	TimingsUnresolved bool             `json:"timings_unresolved"`
	Workloads         []workloadResult `json:"workloads"`
}

func stampEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: computeRanks,
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(value)
				break
			}
		}
	}
	// The exit status is all that matters: outside a git checkout there is
	// no commit to stamp.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// state is the parent's view of one workload while it runs.
type state struct {
	w *workload
	// in, out, oracle and tmp are the workload's directories: generated
	// inputs, a job's outputs, the replay's outputs, and the TMPDIR every
	// child gets, which must be empty again when the child has exited.
	in, out, oracle, tmp string

	setup   setupInfo
	replay  *childResult
	elapsed time.Duration
	samples map[string][]float64
	// phases holds, per MapReduce phase metric, one value per timed job of a
	// workload whose job records benchmark spans itself (the shuffle).
	phases map[string][]float64
	res    workloadResult
}

// done reports whether the workload's timed jobs are finished: after the
// fixed number of repeats, or when another job of the last one's length
// would end further past the time budget than it started before it.
func (s *state) done(o options) bool {
	walls := s.samples["wall_s"]
	if o.repeats > 0 {
		return len(walls) >= o.repeats
	}
	if len(walls) == 0 {
		return false
	}
	last := time.Duration(walls[len(walls)-1] * float64(time.Second))
	return s.elapsed+last/2 > time.Duration(o.seconds*float64(time.Second))
}

// runBenchmark generates every workload's inputs, replays them serially for
// the oracle, then runs the timed jobs one child at a time, interleaved
// across workloads, and finally the traced pass.
func runBenchmark(o options, log io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	root, err := filepath.Abs(o.workDir)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	res := &result{Env: stampEnvironment(), Seed: o.seed, Scale: o.scale}
	if res.Env.NumCPU < computeRanks {
		res.TimingsUnresolved = true
		fmt.Fprintf(log, "warning: %d CPU for %d compute ranks: counts are good, every timing is unresolved\n",
			res.Env.NumCPU, computeRanks)
	}
	r := runner{exe: exe, o: o}
	var states []*state
	for _, w := range o.workloads {
		dir := filepath.Join(work, w.name)
		s := &state{w: w, samples: map[string][]float64{}, phases: map[string][]float64{},
			in: filepath.Join(dir, "in"), out: filepath.Join(dir, "out"),
			oracle: filepath.Join(dir, "oracle"), tmp: filepath.Join(dir, "tmp")}
		s.res = workloadResult{Name: w.name, WorkUnit: w.unit}
		states = append(states, s)
		if err := r.prepare(s); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Fprintf(log, "%s: inputs %s, replay %.2fs\n", w.name, s.res.InputSHA256[:12], s.replay.WallS)
	}
	for active := true; active; {
		active = false
		for _, s := range states {
			if s.done(o) {
				continue
			}
			active = true
			if err := r.timedJob(s); err != nil {
				return nil, fmt.Errorf("%s: %w", s.w.name, err)
			}
		}
	}
	for _, s := range states {
		s.res.EndToEnd = map[string]stat{}
		for _, m := range endToEnd {
			s.res.EndToEnd[m.name] = newStat(m.unit, s.samples[m.name])
		}
		if o.trace {
			if err := r.tracedPass(s); err != nil {
				return nil, fmt.Errorf("%s: %w", s.w.name, err)
			}
		}
		res.Workloads = append(res.Workloads, s.res)
	}
	return res, nil
}

// runner starts the children of one benchmark run.
type runner struct {
	exe string
	o   options
}

// child runs one child process to its end and returns the line it printed
// and the kernel's account of the process.
func (r *runner) child(s *state, mode string, traced, probe bool) (*childResult, *os.ProcessState, error) {
	out := s.out
	if mode == modeReplay {
		out = s.oracle
	}
	for _, dir := range []string{out, s.tmp} {
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	args := childArgs{mode: mode, workload: s.w.name, scale: r.o.scale, seed: r.o.seed,
		dir: s.in, out: out, traced: traced, probe: probe}
	cmd := exec.Command(r.exe, args.argv()...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", computeRanks), "TMPDIR="+s.tmp)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var res childResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &res); err != nil {
		return nil, nil, fmt.Errorf("%s child output: %w", mode, err)
	}
	leaked, err := leakedFiles(s.tmp)
	if err != nil {
		return nil, nil, err
	}
	s.res.LeakedFiles += leaked
	return &res, cmd.ProcessState, nil
}

// prepare generates the workload's inputs setupRepeats times, keeps the last
// set, and replays it for the oracle.
func (r *runner) prepare(s *state) error {
	var synth, format []float64
	for i := 0; i < setupRepeats; i++ {
		if err := os.RemoveAll(s.in); err != nil {
			return err
		}
		if err := os.MkdirAll(s.in, 0o755); err != nil {
			return err
		}
		t0 := time.Now()
		info, err := s.w.generate(r.o.seed, s.in)
		if err != nil {
			return fmt.Errorf("generating inputs: %w", err)
		}
		s.samples["setup_s"] = append(s.samples["setup_s"], time.Since(t0).Seconds())
		synth, format = append(synth, info.synthS), append(format, info.formatS)
		s.setup = info
	}
	s.setup.synthS, s.setup.formatS = median(synth), median(format)
	s.res.Work = s.setup.work
	digest, err := inputDigest(s.in)
	if err != nil {
		return err
	}
	s.res.InputSHA256 = digest
	s.replay, _, err = r.child(s, modeReplay, false, r.o.trace)
	return err
}

// timedJob runs one untraced job in a child, records its end-to-end samples
// and checks its outputs against the oracle.
func (r *runner) timedJob(s *state) error {
	t0 := time.Now()
	res, ps, err := r.child(s, modeJob, false, false)
	if err != nil {
		return err
	}
	s.elapsed += time.Since(t0)
	add := func(name string, v float64) { s.samples[name] = append(s.samples[name], v) }
	add("wall_s", res.WallS)
	add("cpu_s", (ps.UserTime() + ps.SystemTime()).Seconds())
	add("work_per_s", float64(s.setup.work)/res.WallS)
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		add("proc.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	if s.w.kind == kindShuffle {
		layer := map[string]float64{}
		phaseMetrics(res.Spans, layer)
		for name, v := range layer {
			s.phases[name] = append(s.phases[name], v)
		}
	}
	attempted, failed, err := checkOutputs(s.w, s.out, s.oracle, s.setup.work)
	if err != nil {
		return fmt.Errorf("checking outputs: %w", err)
	}
	s.res.Attempted += attempted
	s.res.Failed += failed
	return nil
}

// tracedPass runs the job once more with the program's tracer and registry
// on, merges what the three sources measured — set-up, replay, traced job —
// into the per-layer metrics, and writes the benchmark's spans to
// trace.<workload>.json in the work directory.
func (r *runner) tracedPass(s *state) error {
	traced, _, err := r.child(s, modeJob, true, false)
	if err != nil {
		return err
	}
	wall := s.res.EndToEnd["wall_s"].Median
	layer := map[string]float64{
		"bio.synth_s":              s.setup.synthS,
		"blastdb.format_s":         s.setup.formatS,
		"obs.trace_overhead_ratio": traced.WallS/wall - 1,
		"proc.peak_rss_mb":         median(s.samples["proc.peak_rss_mb"]),
	}
	for _, src := range []map[string]float64{s.replay.Layer, traced.Layer} {
		for name, v := range src {
			layer[name] = v
		}
	}
	for name, values := range s.phases {
		layer[name] = median(values)
	}
	switch s.w.kind {
	case kindBlast:
		layer["mrblast.serial_s"] = s.replay.WallS
		layer["mrblast.parallel_efficiency"] = s.replay.WallS / (computeRanks * wall)
	case kindSOM:
		if epochs := layer["mrsom.epochs_s"]; epochs > 0 {
			layer["mrsom.parallel_efficiency"] = layer["som.serial_train_s"] / (computeRanks * epochs)
		}
	case kindShuffle:
		layer["mrmpi.spill_amplification"] = layer["mrmpi.spill_bytes"] / float64(s.setup.work*shuffleRecLen)
	}
	s.res.PerLayer = map[string]float64{}
	for _, m := range perLayer {
		s.res.PerLayer[m.name] = layer[m.name]
		delete(layer, m.name)
	}
	for name := range layer {
		return fmt.Errorf("per-layer metric %s is measured but not declared", name)
	}

	spans := mergeSpans(s.replay.Spans, traced.Spans)
	trace := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Scale    string             `json:"scale"`
		SelfS    map[string]float64 `json:"self_s"`
		Spans    []span             `json:"spans"`
	}{s.w.name, r.o.seed, r.o.scale, selfTimes(spans), spans}
	data, err := json.Marshal(trace)
	if err != nil {
		return err
	}
	s.res.TraceFile = filepath.Join(r.o.workDir, "trace."+s.w.name+".json")
	return os.WriteFile(s.res.TraceFile, data, 0o644)
}
