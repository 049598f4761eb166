package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// stopProfiles finishes whatever profiles startProfiles began. It is
// replaced by startProfiles and is safe to call more than once.
var stopProfiles = func() {}

// exit finishes the profiles, then exits with code: a run that ends in an
// error still leaves readable profiles behind.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// startProfiles starts a CPU profile written to cpuPath and arranges for
// a heap profile to be written to memPath when stopProfiles runs. An empty
// path skips that profile.
func startProfiles(cpuPath, memPath string) error {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		cpu = f
	}
	stopProfiles = func() {
		stopProfiles = func() {}
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}
	return nil
}

// writeHeapProfile writes the live-heap profile, as of a fresh GC, to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
