// Command trainbench is the training benchmark of the JaxPP reproduction. It
// drives one workload end to end — every actor in one process, or one actor
// per OS process over localhost TCP — checks every job's losses and final
// parameters bit for bit against the single-process reference, and prints
// the end-to-end metrics, or with --trace 1 the per-layer breakdown, as one
// JSON object on the last line of standard output. See README.md.
package main

import "os"

func main() {
	// The launcher re-executes this binary once per rank.
	if cfg := os.Getenv(rankEnv); cfg != "" {
		os.Exit(rankMain(cfg))
	}
	os.Exit(launcherMain(os.Args[1:]))
}
