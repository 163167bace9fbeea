"""Spectral operator calculus for waves localized along an axis through
the origin: trigonometric and singular Hilbert transforms, the unitary
configuration/momentum map, the positive nonlocal Hamiltonian, boost
kinematics and spectral time propagation."""

from .grids import (AxialField, AxisGrid, SpectralGrid, SpectralProfile,
                    convert_rep, inner_product, make_grid, make_spectral_grid,
                    sample_field, spectral_inner_product, spectral_norm)
from .transforms import (HalfLineFunction, cosine_taper, hilbert_even,
                         hilbert_odd, hilbert_signed, trig_transform)
from .spectral import (analyze, analyze_fast, fourier_full,
                       fourier_full_inverse, spectral_derivative, synthesize)
from .operators import (LinearOperatorHandle, adjoint_residual,
                        boost_generator_config, boost_generator_local,
                        commutator_residual, four_vector_ops, pbar, pbar0,
                        pbar0_triangle_residual, radial_momentum_tilde,
                        rayleigh_quotient)
from .evolution import (EvolutionResult, SpinorField, VectorField3,
                        density_current, packet_centroid, propagate_maxwell,
                        propagate_scalar, propagate_wave, propagate_weyl,
                        sigma_density)
from .relativity import (BeamState, BoostParams, FourMomentum,
                         aberrate_direction, boost_beam, boost_four_momentum,
                         doppler_factor, momentum_boost_generator)
from .verify import RunConfig, VerificationReport, run_verification

__version__ = "0.1.0"
