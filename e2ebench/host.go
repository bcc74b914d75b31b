package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostLine describes the machine a run measured on, so a noisy run can be
// told apart from a regression: CPU count, GOMAXPROCS, Go version, CPU
// model, and the share of CPU time the hypervisor stole during the run.
func hostLine(start, end procStat) string {
	steal := "unknown"
	if total := end.total - start.total; start.ok && end.ok && total > 0 {
		steal = fmt.Sprintf("%.1f%%", 100*float64(end.steal-start.steal)/float64(total))
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q steal=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), steal)
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

// clockTick is the unit of /proc/stat: USER_HZ, which is 100 on Linux.
const clockTick = 10 * time.Millisecond

// procStat is one read of /proc/stat, in clock ticks: the aggregate time
// of all CPUs and the steal among it, and each CPU's steal. ok is false
// where /proc/stat cannot be read; then no steal is ever seen.
type procStat struct {
	total, steal uint64
	cpuSteal     []uint64
	ok           bool
}

func readProcStat() procStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return procStat{}
	}
	var p procStat
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 9 || !strings.HasPrefix(fields[0], "cpu") {
			continue
		}
		var total, steal uint64
		// user nice system idle iowait irq softirq steal; guest time
		// (fields 9 and 10) is already inside user and nice.
		for i, f := range fields[1:9] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return procStat{}
			}
			total += v
			if i == 7 {
				steal = v
			}
		}
		if fields[0] == "cpu" {
			p.total, p.steal = total, steal
		} else {
			p.cpuSteal = append(p.cpuSteal, steal)
		}
	}
	p.ok = p.total > 0
	return p
}

// stolen is the longest time the hypervisor held any one CPU back between
// two reads. A timed call is delayed by at least that much; subtracting it
// keeps other tenants' load on a shared VM out of the program's times.
func stolen(start, end procStat) time.Duration {
	var most uint64
	for i := range end.cpuSteal {
		if i < len(start.cpuSteal) && end.cpuSteal[i]-start.cpuSteal[i] > most {
			most = end.cpuSteal[i] - start.cpuSteal[i]
		}
	}
	return time.Duration(most) * clockTick
}

// lessSteal is d minus the steal seen over it, never below zero.
func lessSteal(d time.Duration, start, end procStat) time.Duration {
	return max(d-stolen(start, end), 0)
}

// processCPU returns the process's user+sys CPU time. getrusage fails only
// on a bad argument, which would be a bug here.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
