package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/serve"
)

// server is one vpserve child process. Its CPU time and peak RSS are read
// from its own /proc entry, so they never include the generator.
type server struct {
	cmd    *exec.Cmd
	addr   string // binary protocol
	admin  string // http://host:port
	waited chan struct{}
	logMu  sync.Mutex
	log    bytes.Buffer
}

var (
	addrRE  = regexp.MustCompile(`serving addr=(\S+)`)
	adminRE = regexp.MustCompile(`stats=(http://[^/\s]+)/stats`)
)

// startServer runs vpserve with one shard on loopback ports it picks
// itself, waits for it to listen and dials the load connection. ready is
// the time from starting the process to the first accepted hello.
func startServer(bin string, extra ...string) (*server, *serve.Client, time.Duration, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-shards", "1"}, extra...)
	s := &server{cmd: exec.Command(bin, args...), waited: make(chan struct{})}
	// The child dies with the benchmark, however the benchmark ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, nil, 0, fmt.Errorf("start vpserve: %w", err)
	}
	found := make(chan error, 1)
	go s.readLog(stderr, found)
	select {
	case err = <-found:
	case <-time.After(60 * time.Second):
		err = errors.New("vpserve did not start listening within 60s")
	}
	if err != nil {
		s.kill()
		return nil, nil, 0, fmt.Errorf("%w\n%s", err, s.logText())
	}
	c, err := serve.Dial(s.addr)
	if err != nil {
		s.kill()
		return nil, nil, 0, fmt.Errorf("dial vpserve: %w", err)
	}
	ready := time.Since(t0)
	if c.Shards() != 1 {
		c.Close()
		s.kill()
		return nil, nil, 0, fmt.Errorf("vpserve reports %d shards, want 1", c.Shards())
	}
	return s, c, ready, nil
}

// readLog keeps the child's stderr drained (a full pipe would stall it),
// reports the listen addresses once both are logged, and reaps the
// process when the pipe closes.
func (s *server) readLog(r io.Reader, found chan<- error) {
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		s.logMu.Lock()
		s.log.WriteString(line + "\n")
		s.logMu.Unlock()
		if m := addrRE.FindStringSubmatch(line); m != nil {
			s.addr = m[1]
		}
		if m := adminRE.FindStringSubmatch(line); m != nil && s.addr != "" && !sent {
			s.admin = m[1]
			sent = true
			found <- nil
		}
	}
	err := s.cmd.Wait()
	if !sent {
		found <- fmt.Errorf("vpserve exited before listening: %v", err)
	}
	close(s.waited)
}

func (s *server) logText() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return s.log.String()
}

// stop sends SIGTERM — vpserve drains and writes its final checkpoint —
// and waits for the process to exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-s.waited:
	case <-time.After(120 * time.Second):
		s.kill()
		return errors.New("vpserve did not exit within 120s of SIGTERM")
	}
	if st := s.cmd.ProcessState; st == nil || !st.Success() {
		return fmt.Errorf("vpserve exited with %v\n%s", st, s.logText())
	}
	return nil
}

// kill ends the process at once and waits for it; a no-op once it has
// exited.
func (s *server) kill() {
	select {
	case <-s.waited:
	default:
		s.cmd.Process.Kill()
		<-s.waited
	}
}

// cpu returns the process's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU reads utime+stime (fields 14 and 15) from /proc/<pid>/stat,
// in USER_HZ ticks of 10ms on Linux.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS returns VmHWM, the process's peak resident set, in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metrics scrapes GET /metrics into series → value ("name{labels}" keys,
// as exposed).
func (s *server) metrics() (map[string]float64, error) {
	resp, err := http.Get(s.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// snapshot triggers POST /snapshot: the server cuts and writes a
// checkpoint before it answers.
func (s *server) snapshot() error {
	resp, err := http.Post(s.admin+"/snapshot", "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /snapshot: %s: %s", resp.Status, body)
	}
	return nil
}
