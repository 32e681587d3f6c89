package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// host fingerprints the machine, the build and the pinned worker counts,
// so records from different hosts or settings are never compared.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from ("unknown"
	// outside a repository checkout); Modified reports local changes.
	Commit   string `json:"commit"`
	Modified bool   `json:"modified,omitempty"`
	// ServerWorkers is serve.Options.Workers of the server the clients
	// talk to; FleetWorkers and FleetWorkerSlots describe the fleet.
	ServerWorkers    int `json:"server_workers"`
	FleetWorkers     int `json:"fleet_workers"`
	FleetWorkerSlots int `json:"fleet_worker_slots"`
	// StreamFillWorkers is the streaming fill's worker count (one per
	// CPU); EngineFillWorkers is the engine's fill workers for a lone
	// generation (GOMAXPROCS, divided among concurrent generations).
	StreamFillWorkers int `json:"stream_fill_workers"`
	EngineFillWorkers int `json:"engine_fill_workers"`
	Clients           int `json:"clients"`
}

func fingerprint(e *env) host {
	h := host{
		CPU:               cpuModel(),
		NumCPU:            runtime.NumCPU(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		GoVersion:         runtime.Version(),
		Commit:            "unknown",
		ServerWorkers:     e.workers,
		FleetWorkers:      fleetWorkers,
		FleetWorkerSlots:  1,
		StreamFillWorkers: runtime.NumCPU(),
		EngineFillWorkers: runtime.GOMAXPROCS(0),
		Clients:           e.clients,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// cpuModel reads the processor's model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
