package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one cmd/coraddd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	ckpt string
	// done is closed once the process has exited and waitErr is set.
	done    chan struct{}
	waitErr error

	mu   sync.Mutex
	tail []string // last lines of the daemon's log, for error reports
}

const (
	daemonLogTail = 20
	daemonBoot    = 60 * time.Second
	// daemonStop bounds SIGTERM-to-exit; the daemon's own drain deadline
	// is 10s.
	daemonStop = 30 * time.Second
)

// startDaemon starts bin listening on a free loopback port with its
// checkpoint in dir, and returns once it has reported its address.
func startDaemon(bin, dir string, args ...string) (*daemon, error) {
	d := &daemon{ckpt: filepath.Join(dir, "checkpoint"), done: make(chan struct{})}
	args = append([]string{"-addr", "127.0.0.1:0", "-checkpoint", d.ckpt}, args...)
	d.cmd = exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, whatever ends it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		d.scan(stderr, addr)
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.addr = a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("daemon exited before listening: %v\n%s", d.waitErr, d.logTail())
	case <-time.After(daemonBoot):
		d.kill()
		return nil, errors.New("daemon did not report its address")
	}
}

// scan consumes the daemon's log, sending the listen address once and
// keeping the last lines.
func (d *daemon) scan(r io.Reader, addr chan<- string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if !sent {
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				addr <- strings.TrimSpace(a)
				sent = true
			}
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > daemonLogTail {
			d.tail = d.tail[len(d.tail)-daemonLogTail:]
		}
		d.mu.Unlock()
	}
	// Keep draining so the daemon never blocks on a full pipe.
	_, _ = io.Copy(io.Discard, r)
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(c *http.Client) error {
	deadline := time.Now().Add(daemonBoot)
	for time.Now().Before(deadline) {
		resp, err := c.Get(d.url("/readyz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("daemon exited while booting: %v\n%s", d.waitErr, d.logTail())
		case <-time.After(10 * time.Millisecond):
		}
	}
	return errors.New("daemon not ready in time")
}

// stop sends SIGTERM and waits for the exit, returning the exit code.
func (d *daemon) stop() (int, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return -1, err
	}
	select {
	case <-d.done:
	case <-time.After(daemonStop):
		d.kill()
		return -1, errors.New("daemon did not exit after SIGTERM")
	}
	var ee *exec.ExitError
	switch {
	case d.waitErr == nil:
		return 0, nil
	case errors.As(d.waitErr, &ee):
		return ee.ExitCode(), nil
	default:
		return -1, d.waitErr
	}
}

// kill ends the process and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// scrape reads a Prometheus text exposition into series keyed by name
// plus labels exactly as exposed.
func scrape(ctx context.Context, c *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metric line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// histogramQuantile estimates quantile q of the histogram whose bucket
// series are name_bucket{<labels>,le="..."}, interpolating linearly inside
// the bucket the way Prometheus' histogram_quantile does.
func histogramQuantile(series map[string]float64, name, labels string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	prefix := name + "_bucket{" + labels + ",le=\""
	for k, v := range series {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		leStr := strings.TrimSuffix(rest, "\"}")
		if le, err := strconv.ParseFloat(leStr, 64); err == nil {
			bs = append(bs, bucket{le, v})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	prevLE, prevCum := 0.0, 0.0
	for _, b := range bs {
		if b.cum >= rank {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			if b.cum == prevCum {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-prevCum)/(b.cum-prevCum)
		}
		prevLE, prevCum = b.le, b.cum
	}
	return prevLE
}

// fileKB is a file's size in KB.
func fileKB(path string) (float64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()) / 1024, nil
}
