"""Correctness checks on the program's outputs.

Each check compares an output with a value the benchmark computes by
other means, or with a property the method must have. None compares
with a stored copy of earlier output. Each returns a list of problems,
empty when the output passes.
"""

import math

import numpy as np

# share of the boundary-pixel bound (see `sphere_tolerance`) a sphere's load
# may stray beyond the readout rounding; gaps seen stay below 0.017 of it
SPHERE_EDGE_TOL = 0.03


def roundtrip(stored, loaded):
    """`load(store(x))` must give back x, sample for sample."""
    if len(stored) != len(loaded):
        return [f"FAF1 round trip: stored {len(stored)} samples, loaded {len(loaded)}"]
    bad = [i for i, (a, b) in enumerate(zip(stored, loaded)) if not a == b]
    return [f"FAF1 round trip: sample {i} differs" for i in bad[:3]]


def cap_load(stiffness, radius, depth):
    """Elastic-foundation load of a sphere pressed `depth` mm: k pi d^2 (R - d/3)."""
    return stiffness * math.pi * depth * depth * (radius - depth / 3.0)


def sphere_tolerance(stiffness, quantum, radius, depth, pitch):
    """Allowed |F^z - cap load| for a sphere on a pixel grid, in N.

    The readout rounds to half a quantum. The grid integrates the cap at
    pixel centers, so its error sits on the ring of about 2 pi a / p
    boundary pixels, each off by at most the height change across one
    pixel, min(slope * p, d), where the cap wall's slope at the rim is
    a / (R - d). Times pixel area and stiffness that bounds the
    discretisation error; a share of it is allowed.
    """
    a = math.sqrt(max(depth * (2.0 * radius - depth), 0.0))
    rise = depth if radius - depth <= 0 else min(a / (radius - depth) * pitch, depth)
    edge = stiffness * pitch * pitch * (2.0 * math.pi * a / pitch) * rise
    return quantum / 2.0 + SPHERE_EDGE_TOL * edge


def tool_axis(roll, pitch, yaw):
    """World direction of the tool axis, Rz(yaw) Ry(pitch) Rx(roll) e_z, in degrees."""
    r, p, y = np.radians([roll, pitch, yaw])
    return np.array([math.cos(r) * math.sin(p) * math.cos(y) + math.sin(r) * math.sin(y),
                     math.cos(r) * math.sin(p) * math.sin(y) - math.sin(r) * math.cos(y),
                     math.cos(r) * math.cos(p)])


def cap_inside_pad(pose, radius, half_w, half_h, pitch):
    """Whether a sphere's contact disc lies at least one pixel inside the pad.

    Pressing along the tilted axis to vertical depth d drags the tool by
    -d w_xy / w_z; the sphere's center then sits R w_xy further along,
    and the disc it cuts from the gel plane has radius sqrt(d (2R - d)).
    """
    x, y, z, roll, pitch_deg, yaw = (float(v) for v in pose)
    depth = -z
    w = tool_axis(roll, pitch_deg, yaw)
    cx = x - depth * w[0] / w[2] + radius * w[0]
    cy = y - depth * w[1] / w[2] + radius * w[1]
    a = math.sqrt(max(depth * (2.0 * radius - depth), 0.0))
    return abs(cx) + a <= half_w - pitch and abs(cy) + a <= half_h - pitch


def sphere_loads(samples, spheres, profiles):
    """Every sphere sample's F^z matches the closed-form cap load.

    `spheres` maps indenter id to radius and `profiles` maps profile id
    to (stiffness, quantum, half width, half height, pixel pitch) in N
    and mm. The depth is read from the pose, whose z is minus the
    vertical indentation. A sample whose contact disc reaches the edge
    of the pad carries only part of the cap and is not compared.
    Returns (problems, gaps in N of the samples compared).
    """
    problems, gaps = [], []
    for i, s in enumerate(samples):
        radius = spheres.get(s.indenter_id)
        if radius is None:
            continue
        stiffness, quantum, half_w, half_h, pitch = profiles[s.profile_id]
        if not cap_inside_pad(s.pose, radius, half_w, half_h, pitch):
            continue
        depth = -float(s.pose[2])
        expected = cap_load(stiffness, radius, depth)
        gap = abs(float(s.force[2]) - expected)
        gaps.append(gap)
        if gap > sphere_tolerance(stiffness, quantum, radius, depth, pitch):
            problems.append(f"sphere sample {i}: F^z {float(s.force[2]):.4f} N, "
                            f"cap load {expected:.4f} N")
    return problems[:3], gaps


def balanced_subset(raw, kept, bin_width):
    """`balance` keeps an order-preserving subset that caps every bin.

    Per tool, F^z bins of width `bin_width` are capped at the median
    count of the nonempty bins, rounded up. Bins at or under the cap
    keep every sample and bins over it keep exactly the cap.
    """
    problems = []
    j = 0
    for s in kept:
        while j < len(raw) and not raw[j] == s:
            j += 1
        if j == len(raw):
            return ["balance: output is not an order-preserving subset of its input"]
        j += 1

    def bins(samples):
        out = {}
        for s in samples:
            key = (s.indenter_id, math.floor(float(s.force[2]) / bin_width))
            out[key] = out.get(key, 0) + 1
        return out

    before, after = bins(raw), bins(kept)
    for tool in sorted({t for t, _ in before}):
        counts = [n for (t, _), n in before.items() if t == tool]
        cap = math.ceil(float(np.median(counts)))
        for (t, b), n in sorted(before.items()):
            if t != tool:
                continue
            want = min(n, cap)
            got = after.get((t, b), 0)
            if got != want:
                problems.append(f"balance: tool {t} bin {b} kept {got} of {n}, expected {want}")
    return problems[:3]


def training_arrays(arrays, samples):
    """Images in [-1, 1], depths in [0, 1], one row per sample, forces kept."""
    problems = []
    n = len(samples)
    for key in ("images", "forces", "depths"):
        if len(arrays[key]) != n:
            problems.append(f"arrays: {len(arrays[key])} {key} rows for {n} samples")
    if problems:
        return problems
    if not (np.all(arrays["images"] >= -1.0) and np.all(arrays["images"] <= 1.0)):
        problems.append("arrays: image values outside [-1, 1]")
    if not (np.all(arrays["depths"] >= 0.0) and np.all(arrays["depths"] <= 1.0)):
        problems.append("arrays: depth values outside [0, 1]")
    forces = np.stack([s.force for s in samples]).astype(np.float64)
    if not np.array_equal(arrays["forces"], forces):
        problems.append("arrays: force rows differ from the samples' readouts")
    return problems


DERIVATIVE_TOL = 1e-4     # relative gap allowed between tape and finite difference
DERIVATIVE_FLOOR = 1e-3   # derivatives below this are compared on this absolute scale


def directional_agreement(analytic, finite_diff):
    """Relative gap between a tape and a finite-difference derivative."""
    rel = abs(finite_diff - analytic) / max(abs(finite_diff), abs(analytic), DERIVATIVE_FLOOR)
    return rel, rel <= DERIVATIVE_TOL


def finite_losses(curve):
    if not np.all(np.isfinite(curve)):
        return ["training: a loss is not finite"]
    return []


def constant_force_loss(forces):
    """Train L_F of the best constant predictor: the per-axis median."""
    forces = np.asarray(forces, dtype=np.float64)
    return float(np.abs(forces - np.median(forces, axis=0)).sum(axis=1).mean())


def constant_force_error(train_forces, cells, ranges):
    """Pooled normalized error of the train-set median on the eval cells."""
    med = np.median(np.asarray(train_forces, dtype=np.float64), axis=0)
    total = count = 0.0
    for cell in cells.values():
        f = np.asarray(cell["forces"], dtype=np.float64)
        total += float((np.abs(f - med) / ranges).mean(axis=1).sum())
        count += len(f)
    return total / count


def beats_constant(final_loss, constant_loss, error, constant_error):
    problems = []
    if not final_loss < constant_loss:
        problems.append(f"training: final L_F {final_loss:.4f} not below the "
                        f"constant predictor's {constant_loss:.4f}")
    if not error < constant_error:
        problems.append(f"training: held-out error {error:.4f} not below the "
                        f"constant predictor's {constant_error:.4f}")
    return problems


def identical(a, b, what):
    if not np.array_equal(np.asarray(a), np.asarray(b)):
        return [f"{what}: predictions differ"]
    return []


def finetune_scope(reference, tuned, in_scope, report):
    """Parameters outside the scope stay bit-identical; the fit error drops.

    `reference` and `tuned` map parameter names to arrays;
    `in_scope(name)` says whether finetune may move a parameter.
    """
    problems = [f"finetune moved {name}, outside its scope"
                for name, arr in tuned.items()
                if not in_scope(name) and not np.array_equal(arr, reference[name])]
    if not any(not np.array_equal(arr, reference[name])
               for name, arr in tuned.items() if in_scope(name)):
        problems.append("finetune moved no parameter inside its scope")
    if not report.post_fit_error < report.pre_fit_error:
        problems.append(f"finetune: fit error {report.pre_fit_error:.4f} -> "
                        f"{report.post_fit_error:.4f}, not lower")
    return problems[:3]


def weighed(mass, true_mass, tol, what):
    if not abs(mass - true_mass) <= tol:
        return [f"{what}: weighed {mass:.4f} kg, true {true_mass} kg, allowed {tol:.4f}"]
    return []


def grasp_stop(readings, target, report):
    """The grasp stops at the first step whose reading reaches the target.

    `readings` are the estimator's max F^z per control step, as seen by
    the benchmark's own wrapper.
    """
    hits = [k for k, r in enumerate(readings) if r >= target]
    if not hits:
        return [f"grasp to {target:.3f} N: no reading reached the target"]
    first = hits[0]
    if first != len(readings) - 1 or report.steps != first:
        return [f"grasp to {target:.3f} N: reading reached it at step {first}, "
                f"controller stopped at step {report.steps} after {len(readings)} readings"]
    if report.estimated_force != readings[first]:
        return [f"grasp to {target:.3f} N: reported {report.estimated_force} N, "
                f"read {readings[first]} N"]
    return []


def overshoot(report, target, increment):
    """With exact readings the stop force overshoots by less than one step."""
    over = report.true_force - target
    if not -1e-9 <= over < increment:
        return [f"grasp to {target:.3f} N: overshoot {over:.4f} N, allowed [0, {increment:.4f})"]
    return []
