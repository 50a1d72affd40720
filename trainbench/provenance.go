package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"strings"

	"repro/internal/obs"
)

// provenanceInfo says where a result came from, so results from two machines
// show why they differ.
type provenanceInfo struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NProc      int    `json:"nproc"`
	Procs      int    `json:"procs"`
	GOMAXPROCS int    `json:"gomaxprocs_per_rank"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the VCS revision the binary was built from, when the build
	// saw one; SourceDigest hashes the Go sources it was built from, which
	// identifies the code when the checkout is not a repository.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	// MatMul256GFLOPS is the reference-kernel probe: tensor.MatMulInto at
	// 256×256×256 on this machine.
	MatMul256GFLOPS float64 `json:"matmul_256_gflops"`
}

func provenance(w workload, seed uint64) provenanceInfo {
	p := provenanceInfo{
		Workload:   w.name,
		Seed:       seed,
		NProc:      goruntime.NumCPU(),
		Procs:      w.procs,
		GOMAXPROCS: max(1, goruntime.NumCPU()/w.procs),
		GoVersion:  goruntime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.Commit = s.Value
			}
		}
	}
	p.SourceDigest = sourceDigest()
	p.MatMul256GFLOPS = matmulGflops(256, 256, 256)
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under the working directory
// (the checkout root), skipping hidden directories such as the build output.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// writeTrace writes the spans of the launcher (process row -1) and of the
// first traced trial's ranks (one row per rank; a long in-process trial
// records tens of thousands) as a Chrome trace under .bench_build/traces,
// with every traced trial's per-rank obs scope totals.
func writeTrace(w workload, seed uint64, prov provenanceInfo, ts []*trial, launcher *recorder) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var events []event
	add := func(pid int, spans []span) {
		for _, s := range spans {
			events = append(events, event{
				Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Pid: pid, Tid: s.Tid, Args: map[string]int{"trial": s.Trial},
			})
		}
	}
	spans, dropped := launcher.take()
	add(-1, spans)
	var profiles [][]*obs.Snapshot
	for _, t := range ts {
		profiles = append(profiles, t.ranks[0].Profiles)
	}
	for _, r := range ts[0].ranks {
		dropped += r.Dropped
		add(r.Rank, r.Spans)
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents": events,
		"otherData":   map[string]any{"provenance": prov, "dropped_spans": dropped, "profiles": profiles},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed)), data, 0o644)
}
