package main

import "testing"

func TestCheckRadius(t *testing.T) {
	cases := []struct {
		k       int
		wantErr bool
	}{
		{-5, true},
		{-1, true},
		{0, false},
		{1, false},
		{1000, false},
	}
	for _, c := range cases {
		if err := checkRadius(c.k); (err != nil) != c.wantErr {
			t.Errorf("checkRadius(%d) = %v, want error %v", c.k, err, c.wantErr)
		}
	}
}
