package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
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

// topology is a running set of server processes: one pnnserve, or
// pnnrouter in front of two pnnserve replicas.
type topology struct {
	procs    []*exec.Cmd
	logs     []*os.File
	url      string   // where the load goes: the router or the single server
	backends []string // every pnnserve base URL
	storeDir string   // the durable store, "" for read-only datasets
}

// startTopology launches w's servers with their default flags — only
// the address, data, store, token, backends and log level are set —
// and waits until each answers /healthz.
func startTopology(ctx context.Context, bin, work string, w workload, dataPath, storeDir string) (*topology, error) {
	t := &topology{storeDir: storeDir}
	data := "-data=" + datasetName + "=" + dataPath
	replicas := 1
	if w.routed {
		replicas = 2
	}
	for i := 0; i < replicas; i++ {
		args := []string{data, "-log-level=off"}
		if w.durable {
			args = append(args, "-store="+storeDir, "-admin-token="+adminToken)
		}
		url, err := t.launch(ctx, filepath.Join(bin, "pnnserve"), work, args)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.backends = append(t.backends, url)
		t.url = url
	}
	if w.routed {
		url, err := t.launch(ctx, filepath.Join(bin, "pnnrouter"), work,
			[]string{"-backends=" + strings.Join(t.backends, ","), "-log-level=off"})
		if err != nil {
			t.stop()
			return nil, err
		}
		t.url = url
	}
	return t, nil
}

// launch starts one server on a free loopback port and waits for its
// /healthz. The child is killed if the benchmark dies first.
func (t *topology) launch(ctx context.Context, path, work string, args []string) (string, error) {
	port, err := freePort()
	if err != nil {
		return "", err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.CreateTemp(work, filepath.Base(path)+"-*.log")
	if err != nil {
		return "", err
	}
	cmd := exec.Command(path, append([]string{"-addr=" + addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return "", fmt.Errorf("starting %s: %w", path, err)
	}
	t.procs = append(t.procs, cmd)
	t.logs = append(t.logs, logf)
	url := "http://" + addr
	if err := waitHealthy(ctx, url); err != nil {
		return "", fmt.Errorf("%s %s: %w (log: %s)", filepath.Base(path), addr, err, logf.Name())
	}
	return url, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func waitHealthy(ctx context.Context, url string) error {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return errors.New("never became healthy")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// peakRSSMB sums the peak resident set (VmHWM) of every server process.
func (t *topology) peakRSSMB() (float64, error) {
	var kb float64
	for _, p := range t.procs {
		v, err := vmHWM(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return kb / 1024, nil
}

func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// stop sends SIGTERM to every process, router first, and waits for each
// to exit; one that does not drain within 15s is killed. It reports the
// first unclean exit: a durable server must shut down cleanly for its
// store to be checked.
func (t *topology) stop() error {
	var first error
	for i := len(t.procs) - 1; i >= 0; i-- {
		p := t.procs[i]
		p.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- p.Wait() }()
		select {
		case err := <-done:
			if err != nil && first == nil {
				first = fmt.Errorf("%s: %w", filepath.Base(p.Path), err)
			}
		case <-time.After(15 * time.Second):
			p.Process.Kill()
			<-done
			if first == nil {
				first = fmt.Errorf("%s did not stop within 15s", filepath.Base(p.Path))
			}
		}
	}
	for _, f := range t.logs {
		f.Close()
	}
	t.procs, t.logs = nil, nil
	return first
}
