package obs

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts the commands' -cpuprofile/-memprofile pair: a CPU
// profile written to cpuPath from now on and a heap profile written to
// memPath by stop. An empty path skips that profile. stop ends the CPU
// profile and writes the heap profile; a command must call it on every
// exit path, error exits included, or the CPU profile stays empty.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeapProfile(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush unreachable allocations so the profile shows live heap
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
