package cliutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles serves a command's -cpuprofile and -memprofile flags: it
// starts a CPU profile into cpuPath, when set, and returns the function
// that, deferred in main, stops it and writes a heap profile into
// memPath, when set. A failure to write the heap profile at exit is
// reported on stderr under prog.
func StartProfiles(prog, cpuPath, memPath string) (stop func(), err error) {
	stopCPU := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		writeMemProfile(prog, memPath)
		stopCPU()
	}, nil
}

func writeMemProfile(prog, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err)
	}
}
