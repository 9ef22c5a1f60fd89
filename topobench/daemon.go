package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one topooptd process booted from a copy of the boot store.
type daemon struct {
	cmd   *exec.Cmd
	dir   string // the daemon's copy of the store
	base  string // API base URL
	debug string // operator listener base URL (pprof)
	setup time.Duration
	done  chan struct{}
}

// freePorts asks the kernel for two distinct unused loopback ports. Both
// listeners stay open until both ports are known, so the kernel cannot
// hand out the same port twice.
func freePorts() (string, string, error) {
	a, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer a.Close()
	b, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", "", err
	}
	defer b.Close()
	return a.Addr().String(), b.Addr().String(), nil
}

// bootDaemon starts a daemon on a fresh copy of the pristine store. A port
// picked for it can be taken by another process before the daemon binds
// it; a daemon whose log shows that is started again, on new ports, up to
// three times. Any other failure during boot fails the run.
func bootDaemon(e *env, pristine string) (*daemon, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var d *daemon
		if d, err = startDaemon(e, pristine); err == nil {
			return d, nil
		}
		if !errors.Is(err, errPortTaken) {
			return nil, err
		}
		logf("boot attempt %d: %v", attempt+1, err)
	}
	return nil, err
}

var errPortTaken = errors.New("topooptd could not bind its port")

// portTaken reports whether the daemon's log shows a failed bind.
func portTaken(logPath string) bool {
	out, _ := os.ReadFile(logPath)
	return bytes.Contains(out, []byte("address already in use"))
}

// startDaemon copies the pristine store to a fresh directory, starts
// topooptd on it and waits for its first healthy answer. setup is the
// time from process start to that answer: it covers opening the store and
// warming the cache from it.
func startDaemon(e *env, pristine string) (*daemon, error) {
	e.boots++
	dir := filepath.Join(e.work, fmt.Sprintf("store-%d", e.boots))
	if err := copyDir(pristine, dir); err != nil {
		return nil, fmt.Errorf("copying boot store: %w", err)
	}
	addr, dbg, err := freePorts()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(e.work, fmt.Sprintf("topooptd-%d.log", e.boots))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(filepath.Join(e.bin, "topooptd"), "-addr", addr, "-debug-addr", dbg, "-store", dir)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, dir: dir, base: "http://" + addr, debug: "http://" + dbg, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting topooptd: %w", err)
	}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := start.Add(60 * time.Second)
	for {
		if answers(e.client, d.base+"/healthz") {
			d.setup = time.Since(start)
			break
		}
		select {
		case <-d.done:
			os.RemoveAll(dir)
			out, _ := os.ReadFile(logPath)
			if portTaken(logPath) {
				return nil, fmt.Errorf("%w: %s", errPortTaken, bytes.TrimSpace(out))
			}
			return nil, fmt.Errorf("topooptd exited during boot: %s", bytes.TrimSpace(out))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("topooptd did not become healthy within 60s")
		}
	}
	// The debug listener starts in its own goroutine; wait for it too. A
	// failed bind there only logs, and the daemon keeps running.
	for !answers(e.client, d.debug+"/metrics") {
		if portTaken(logPath) {
			d.stop()
			return nil, fmt.Errorf("%w: debug listener", errPortTaken)
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("topooptd debug listener did not come up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return d, nil
}

// answers reports whether a GET of url returns 200.
func answers(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop kills the daemon, waits for it to exit and removes its store. The
// cycle is over, so there is nothing to drain.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.done
	os.RemoveAll(d.dir)
}

// totalAlloc reads the daemon's cumulative heap allocation in bytes from
// the MemStats trailer of its allocs profile.
func (d *daemon) totalAlloc(c *http.Client) (uint64, error) {
	body, err := get(c, d.debug+"/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	const key = "# TotalAlloc = "
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, errors.New("allocs profile has no TotalAlloc line")
	}
	rest := body[i+len(key):]
	if j := bytes.IndexByte(rest, '\n'); j >= 0 {
		rest = rest[:j]
	}
	return strconv.ParseUint(string(rest), 10, 64)
}

// peakRSS reads the daemon's peak resident set size (VmHWM) in MB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 3 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func get(c *http.Client, url string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, err
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
