//go:build !linux

package main

// settleFS is syncfs on Linux (settle_linux.go); elsewhere a job starts
// from whatever state the file system is in.
func settleFS(scratch string) {}
