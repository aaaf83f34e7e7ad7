package container_test

import (
	"testing"

	"mathcloud/internal/container"
)

func TestDefaultBaseURL(t *testing.T) {
	cases := []struct{ addr, want string }{
		{":8080", "http://localhost:8080"},
		{"127.0.0.1:8191", "http://127.0.0.1:8191"},
		{"example.org:80", "http://example.org:80"},
		{"[::1]:9000", "http://[::1]:9000"},
		{"localhost:0", "http://localhost:0"},
	}
	for _, c := range cases {
		if got := container.DefaultBaseURL(c.addr); got != c.want {
			t.Errorf("DefaultBaseURL(%q) = %q, want %q", c.addr, got, c.want)
		}
	}
}
