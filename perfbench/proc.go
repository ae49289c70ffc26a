package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a running program process whose stderr lines are timestamped as
// they arrive, so the benchmark can time events it observes from outside
// (a worker's "ready", a daemon's "listening").
type child struct {
	cmd   *exec.Cmd
	start time.Time

	stdout bytes.Buffer

	mu     sync.Mutex
	lines  []line
	notify chan struct{} // buffered 1: a pending "new lines" wake-up
	eof    chan struct{}
}

type line struct {
	at time.Time
	s  string
}

// start launches bin with args in its own process group. Cancelling ctx
// kills the whole group, so worker processes a coordinator spawned never
// outlive the benchmark.
func start(ctx context.Context, bin string, args ...string) (*child, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, notify: make(chan struct{}, 1), eof: make(chan struct{})}
	cmd.Stdout = &c.stdout
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		defer close(c.eof)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			c.mu.Lock()
			c.lines = append(c.lines, line{time.Now(), sc.Text()})
			c.mu.Unlock()
			select {
			case c.notify <- struct{}{}:
			default:
			}
		}
	}()
	return c, nil
}

// waitLine blocks until a stderr line containing substr arrives and returns
// it. It fails when the process closes stderr first or ctx ends.
func (c *child) waitLine(ctx context.Context, substr string) (line, error) {
	for i := 0; ; {
		c.mu.Lock()
		for ; i < len(c.lines); i++ {
			if strings.Contains(c.lines[i].s, substr) {
				l := c.lines[i]
				c.mu.Unlock()
				return l, nil
			}
		}
		c.mu.Unlock()
		select {
		case <-c.notify:
		case <-c.eof:
			c.mu.Lock()
			n := len(c.lines)
			c.mu.Unlock()
			if i == n {
				return line{}, fmt.Errorf("%s exited before printing %q: %s", c.cmd.Path, substr, c.stderr())
			}
		case <-ctx.Done():
			return line{}, ctx.Err()
		}
	}
}

// wait reaps the process and returns its wall time, peak resident set in MB
// (the maximum over the process and every descendant it reaped, which for a
// -dist coordinator includes its workers) and exit error.
func (c *child) wait() (wall time.Duration, rssMB float64, err error) {
	<-c.eof
	err = c.cmd.Wait()
	wall = time.Since(c.start)
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		err = fmt.Errorf("%s %s: %w: %s", c.cmd.Path, strings.Join(c.cmd.Args[1:], " "), err, tail(c.stderr(), 400))
	}
	return wall, rssMB, err
}

// output waits for the process and returns its standard output.
func (c *child) output() ([]byte, error) {
	_, _, err := c.wait()
	return c.stdout.Bytes(), err
}

func (c *child) signal(sig syscall.Signal) { c.cmd.Process.Signal(sig) }

func (c *child) stderr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	for _, l := range c.lines {
		b.WriteString(l.s)
		b.WriteByte('\n')
	}
	return b.String()
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// run starts bin, waits for it and returns its wall time, peak RSS and
// stderr.
func run(ctx context.Context, bin string, args ...string) (time.Duration, float64, string, error) {
	c, err := start(ctx, bin, args...)
	if err != nil {
		return 0, 0, "", err
	}
	wall, rss, err := c.wait()
	return wall, rss, c.stderr(), err
}
