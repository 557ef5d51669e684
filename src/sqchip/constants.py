"""Physical constants (CODATA-2018 exact values) and junction defaults.

Energies in this package are expressed as frequencies (E/h, in Hz) unless a
field says otherwise; lengths are micrometres, capacitances farads.
"""

ELEMENTARY_CHARGE = 1.602176634e-19   # C, exact
PLANCK = 6.62607015e-34               # J s, exact
BOLTZMANN = 1.380649e-23              # J/K, exact
SPEED_OF_LIGHT = 299792458.0          # m/s, exact

# Junction electrode defaults (aluminium process).
DEFAULT_GAP_VOLTAGE = 0.182e-3   # V
DEFAULT_TEMPERATURE = 0.020      # K
