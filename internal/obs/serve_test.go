package obs

import (
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"
)

// TestServeDrainsOnSignal: SIGTERM stops the server from accepting, lets the
// request in flight finish, and only then returns nil.
func TestServeDrainsOnSignal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		io.WriteString(w, "ok")
	})
	done := make(chan error, 1)
	go func() { done <- Serve(context.Background(), ln, h, "") }()
	base := "http://" + ln.Addr().String()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if resp, err := http.Get(base + "/"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never answered")
		}
	}
	slow := make(chan int, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err != nil {
			log.Printf("slow request: %v", err)
			slow <- 0
			return
		}
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	<-entered
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("Serve returned %v with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if code := <-slow; code != http.StatusOK {
		t.Fatalf("in-flight request = %d, want 200", code)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v, want nil after a signal", err)
		}
	case <-time.After(drainWindow + time.Second):
		t.Fatal("Serve did not return after the drain")
	}
}
