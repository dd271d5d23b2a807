// Package hmcbackend is a deprecated alias shim. The HMC chain backend
// is hmc.Pool, configured by hmc.PoolConfig; these names remain only for
// callers not yet moved to internal/hmc.
package hmcbackend

import "graphpim/internal/hmc"

// CubeConfig is the per-cube configuration.
//
// Deprecated: use hmc.Config.
type CubeConfig = hmc.Config

// Config is the cube-chain configuration.
//
// Deprecated: use hmc.PoolConfig.
type Config = hmc.PoolConfig

// DefaultCubeConfig returns the Table IV cube configuration.
//
// Deprecated: use hmc.DefaultConfig.
func DefaultCubeConfig() CubeConfig { return hmc.DefaultConfig() }

// DefaultConfig returns a chain of n Table IV cubes.
//
// Deprecated: use hmc.DefaultPoolConfig.
func DefaultConfig(n int) Config { return hmc.DefaultPoolConfig(n) }
