package main

import (
	"flag"
	"os"
	"os/exec"
	"regexp"
	"testing"
	"time"
)

// TestHelperProcess is not a test: it is the daemon of the process
// harness. startProc re-execs the test binary into it with the daemon's
// flags after "--", and it runs the real main, so SIGTERM goes through
// main's own signal wiring and the process's exit status is the daemon's.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("CAMPAIGND_HELPER_PROCESS") != "1" {
		t.Skip("re-exec'd by startProc")
	}
	os.Args = append([]string{"campaignd"}, flag.Args()...)
	main()
}

// daemonProc is one campaignd process started by startProc.
type daemonProc struct {
	t    *testing.T
	args []string
	cmd  *exec.Cmd
	log  syncWriter // stdout and stderr
	base string     // http://host:port
	done chan struct{}
	err  error // exit status, set before done closes
}

var listeningLine = regexp.MustCompile(`campaignd listening on (http://\S+)\n`)

// startProc re-execs the test binary as a campaignd with args, plus env
// on top of the test's own environment. It reads the bound address from
// the "listening on" line and returns once /readyz answers ready. The
// test's cleanup kills the process if it is still running.
func startProc(t *testing.T, env []string, args ...string) *daemonProc {
	t.Helper()
	p := &daemonProc{t: t, args: args, done: make(chan struct{})}
	p.cmd = exec.Command(os.Args[0], append([]string{"-test.run=^TestHelperProcess$", "--"}, args...)...)
	p.cmd.Env = append(append(os.Environ(), "CAMPAIGND_HELPER_PROCESS=1"), env...)
	p.cmd.Stdout = &p.log
	p.cmd.Stderr = &p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
	})
	deadline := time.After(10 * time.Second)
	for {
		if m := listeningLine.FindStringSubmatch(p.log.String()); m != nil {
			p.base = m[1]
			break
		}
		select {
		case <-p.done:
			t.Fatalf("daemon exited before listening: %v\n%s", p.err, p.log.String())
		case <-deadline:
			t.Fatalf("daemon never printed its address:\n%s", p.log.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	waitReady(t, p.base)
	return p
}

// signal sends sig (SIGTERM to drain, SIGKILL to die at once) to the
// daemon.
func (p *daemonProc) signal(sig os.Signal) {
	p.t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		p.t.Fatal(err)
	}
}

// wait waits for the daemon to exit and returns its exit status.
func (p *daemonProc) wait() error {
	p.t.Helper()
	select {
	case <-p.done:
		return p.err
	case <-time.After(30 * time.Second):
		p.t.Fatalf("daemon did not exit:\n%s", p.log.String())
		return nil
	}
}

// reboot waits for the daemon to exit, then starts a new one with the
// same flags, and so on the same store directory, without the first
// life's extra environment.
func (p *daemonProc) reboot() *daemonProc {
	p.t.Helper()
	p.wait()
	return startProc(p.t, nil, p.args...)
}
