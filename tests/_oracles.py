"""Independent test oracles kept deliberately separate from the library paths."""

import hashlib
import logging

import numpy as np

from attrunlearn import calibration, cf, mi, nets
from attrunlearn.cf import CFModel
from attrunlearn.data import ML100K_OCCUPATIONS, Attribute, AttributeTable, InteractionDataset
from attrunlearn.evaluation import (
    AttackReport,
    AttributeAttackStats,
    bacc,
    make_folds,
    micro_f1,
    predict,
    train_attacker,
)

log = logging.getLogger(__name__)


def random_kink_free_net(rng, sizes=None):
    """Random net with biases nudged off zero; caller checks pre-activations."""
    if sizes is None:
        depth = rng.integers(2, 4)
        sizes = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
    net = nets.init_network(sizes, seed=int(rng.integers(0, 2**31)))
    for layer in net.layers:
        layer.biases += 0.1 * rng.standard_normal(layer.biases.shape)
    return net


def float_digest(*arrays) -> str:
    """SHA-256 over the float64 bytes of the arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def reference_forward_backward(net, batch, logit_grads):
    """Out-of-place forward pass and backpropagation of ``logit_grads``.

    Every pre-activation and every masked delta is a new array; returns the
    [dW0, db0, ...] list and the input gradients.
    """
    h = np.asarray(batch, dtype=np.float64)
    last = len(net.layers) - 1
    inputs, preacts = [], []
    for i, layer in enumerate(net.layers):
        inputs.append(h)
        z = h @ layer.weights.T + layer.biases
        preacts.append(z)
        h = np.maximum(z, 0.0) if i < last else z
    delta = np.asarray(logit_grads, dtype=np.float64)
    param_grads = [None] * (2 * len(net.layers))
    for i in range(last, -1, -1):
        if i < last:
            delta = delta * (preacts[i] > 0)
        param_grads[2 * i] = delta.T @ inputs[i]
        param_grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ net.layers[i].weights
    return param_grads, delta


def top_k(model_or_embeddings, user: int, k: int, exclusions=frozenset()) -> np.ndarray:
    """Top-k item ids for one user by dot-product score, descending, ties to
    the smaller id; ``exclusions`` are never ranked.

    Takes a CFModel or a ``(user_embeddings, item_embeddings)`` pair. It is the
    per-user ranking rule that ``hr_ndcg_at_k`` computes in blocks.
    """
    if isinstance(model_or_embeddings, CFModel):
        user_emb, item_emb = model_or_embeddings.user_embeddings, model_or_embeddings.item_embeddings
    else:
        user_emb, item_emb = model_or_embeddings
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= user < len(user_emb):
        raise IndexError(f"user {user} out of range")
    m = len(item_emb)
    available = m - len(exclusions)
    if k > available:
        raise ValueError(f"k={k} exceeds {available} rankable items")
    scores = user_emb[user] @ item_emb.T
    if exclusions:
        scores[list(exclusions)] = -np.inf
    order = np.lexsort((np.arange(m), -scores))
    return order[:k]


def kink_free_net_instance(rng):
    """Random (net, batch, labels) whose hidden pre-activations avoid ReLU kinks."""
    for _ in range(60):
        net = random_kink_free_net(rng)
        batch = rng.standard_normal((int(rng.integers(2, 6)), net.input_dim))
        _, _, preacts = nets._forward_cached(net, batch)
        hidden = [z for z in preacts[:-1] if z.size]
        if all(np.abs(z).min() > 1e-3 for z in hidden):
            labels = rng.integers(0, net.output_dim, size=len(batch))
            return net, batch, labels
    raise AssertionError("could not build a kink-free instance")


def kink_free_mi_instance(rng, d=3, p=2, rows=5, hidden=6):
    """Random classifier + batch for FD checks on the MI estimate."""
    for _ in range(60):
        model = mi.make_variational_model(d, p, seed=int(rng.integers(2**31)), hidden=hidden)
        for layer in model.network.layers:
            layer.biases += 0.05 * rng.standard_normal(layer.biases.shape)
        batch = rng.standard_normal((rows, d))
        _, _, preacts = nets._forward_cached(model.network, batch)
        if min(np.abs(z).min() for z in preacts[:-1]) > 1e-3:
            labels = rng.integers(0, p, size=rows)
            if len(np.unique(labels)) >= 2:
                return model, batch, labels
    raise AssertionError("no kink-free instance found")


def reference_calibrate(U0, labels, config, attribute="attr", cardinality=None):
    """Calibration loop built from the public recomputing primitives.

    Every classifier step and every row gradient calls ``nets.forward`` and
    then backpropagates through a second forward pass in
    ``nets.forward_backward``, and the value comes from ``mi.estimate_vclub``:
    five forward passes per iteration with one ascent step. Returns
    (embeddings, mi, nll and distance traces).
    """

    def backward(net, batch, logit_grads):
        return nets.forward_backward(net, batch, lambda _: (None, logit_grads))[1]

    labels = np.asarray(labels, dtype=np.int64)
    if cardinality is None:
        cardinality = int(labels.max()) + 1
    n, d = U0.shape
    seed = calibration._attribute_seed(config.seed, attribute)
    rng = np.random.default_rng(seed)
    model = mi.make_variational_model(
        d, cardinality, seed=seed + 1, learning_rate=config.variational_lr
    )
    net = model.network
    U = U0.copy()
    emb_opt = nets.OptimizerState(learning_rate=config.step_size)
    sampler = mi.BatchSampler(n, config.batch_size, rng)
    mis, nlls, dists = [], [], []
    for _ in range(config.iterations):
        idx = sampler.next_batch()
        batch, y = U[idx], labels[idx]
        for _ in range(config.inner_steps):
            nll, logit_grads = nets.log_softmax_nll(nets.forward(net, batch), y)
            grads = backward(net, batch, logit_grads).param_grads
            nets.optimizer_step(model.optimizer, net.parameters(), grads)
        estimate = mi.estimate_vclub(model, batch, y)
        logp = nets.log_softmax(nets.forward(net, batch))
        g = mi.vclub_logprob_gradient(logp.shape, y)
        logit_grads = g - np.exp(logp) * g.sum(axis=1, keepdims=True)
        full = np.zeros_like(U)
        full[idx] = backward(net, batch, logit_grads).input_grads
        nets.optimizer_step(emb_opt, [U], [full])
        U = calibration.project_ball(U, U0, config.eps_ratio * n)
        mis.append(estimate)
        nlls.append(nll)
        dists.append(float(np.linalg.norm(U - U0)))
    return U, np.array(mis), np.array(nlls), np.array(dists)


def reference_ball_descent(U0, eps, step_size, steps):
    """Dense twin of ``calibration.BallDescent``: each (idx, grad_rows) of
    ``steps`` is scattered into an N x d zero gradient, stepped through Adam
    without rows, then projected out of place. Yields (U, distance) per step."""
    U = U0.copy()
    opt = nets.OptimizerState(learning_rate=step_size)
    for idx, grad_rows in steps:
        full = np.zeros_like(U)
        full[idx] = grad_rows
        nets.optimizer_step(opt, [U], [full])
        U = calibration.project_ball(U, U0, eps)
        yield U, float(np.linalg.norm(U - U0))


def reference_train_cf(dataset, config):
    """BPR training as ``cf.train_cf`` does it, with each batch's gradients
    scattered by three ``np.add.at`` calls (users; items at the positives,
    then at the negatives) into N x d and M x d zero tables for a dense Adam
    step. Returns (user embeddings, item embeddings, per-epoch losses)."""
    rng = np.random.default_rng(config.seed)
    n, m, d = dataset.n_users, dataset.n_items, config.dim
    user_emb = 0.1 * rng.standard_normal((n, d))
    item_emb = 0.1 * rng.standard_normal((m, d))
    positives = cf._membership_bitmap(dataset.train_pairs, n, m)
    diag_idx = rng.integers(0, len(dataset.train_pairs), size=min(4096, len(dataset.train_pairs)))
    diag_pairs = dataset.train_pairs[diag_idx]
    diag_triples = np.column_stack(
        [diag_pairs, cf._sample_negatives(rng, diag_pairs[:, 0], m, positives)])
    state = nets.OptimizerState(learning_rate=config.learning_rate)
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset.train_pairs))
        for start in range(0, len(order), config.batch_size):
            pairs = dataset.train_pairs[order[start : start + config.batch_size]]
            u, i = pairs[:, 0], pairs[:, 1]
            j = cf._sample_negatives(rng, u, m, positives)
            du = item_emb[i] - item_emb[j]
            x = np.einsum("nd,nd->n", user_emb[u], du)
            coeff = -cf._sigmoid(-x)[:, None] / len(u)
            l2 = cf._L2_WEIGHT / len(u)
            gu = np.zeros_like(user_emb)
            gi = np.zeros_like(item_emb)
            np.add.at(gu, u, coeff * du + l2 * user_emb[u])
            np.add.at(gi, i, coeff * user_emb[u] + l2 * item_emb[i])
            np.add.at(gi, j, -coeff * user_emb[u] + l2 * item_emb[j])
            nets.optimizer_step(state, [user_emb, item_emb], [gu, gi])
        losses.append(cf.pairwise_loss(user_emb, item_emb, diag_triples))
    return user_emb, item_emb, losses


def reference_split(raw, min_interactions: int = 5) -> InteractionDataset:
    """Per-rating leave-one-out split: dict id maps and one event list per user.

    A user's test item is the maximum (timestamp, dense item) pair; the other
    distinct items, sorted, are the train pairs.
    """
    ratings = raw.ratings
    uids, counts = np.unique(ratings[:, 0], return_counts=True)
    kept = set(uids[counts >= min_interactions].tolist())
    if not kept:
        raise ValueError("no users meet the interaction threshold")
    mask = np.fromiter((int(u) in kept for u in ratings[:, 0]), bool, len(ratings))
    ratings = ratings[mask]

    user_ids = np.array(sorted(kept), dtype=np.int64)
    item_ids = np.unique(ratings[:, 1])
    umap = {int(u): i for i, u in enumerate(user_ids)}
    imap = {int(v): i for i, v in enumerate(item_ids)}

    n_users = len(user_ids)
    per_user: list[list[tuple[int, int]]] = [[] for _ in range(n_users)]
    for u_raw, v_raw, _, ts in ratings:
        per_user[umap[int(u_raw)]].append((int(ts), imap[int(v_raw)]))

    test_items = np.empty(n_users, dtype=np.int64)
    train_pairs = []
    for u in range(n_users):
        events = per_user[u]
        test_items[u] = max(events)[1]  # (timestamp, item) lexicographic
        items = {item for _, item in events if item != test_items[u]}
        train_pairs.extend((u, item) for item in sorted(items))

    return InteractionDataset(
        n_users=n_users,
        n_items=len(item_ids),
        train_pairs=np.array(train_pairs, dtype=np.int64),
        test_items=test_items,
        user_ids=user_ids,
        item_ids=item_ids,
    )


def reference_align(table, dataset) -> AttributeTable:
    """Reorder label rows to the dataset's dense user index through an id -> row dict."""
    pos = {int(u): i for i, u in enumerate(table.user_ids)}
    missing = [int(u) for u in dataset.user_ids if int(u) not in pos]
    if missing:
        raise ValueError(f"no attribute labels for raw users {missing[:5]}")
    order = np.array([pos[int(u)] for u in dataset.user_ids])
    return AttributeTable(
        [Attribute(a.name, a.cardinality, a.labels[order]) for a in table.attributes],
        dataset.user_ids.copy(),
    )


def _reference_age_bin(age: int, dataset_tag: str) -> int:
    lo, hi = (28, 40) if dataset_tag == "ml-100k" else (25, 35)
    if age < lo:
        return 0
    if age <= hi:
        return 1
    return 2


def reference_bin_attributes(raw, dataset_tag: str, dataset=None) -> AttributeTable:
    """Per-user binning loop over an id -> (age, gender, occupation) dict."""
    users = {
        int(u): (int(a), str(g), str(o))
        for u, a, g, o in zip(raw.user_ids, raw.ages, raw.genders, raw.occupations)
    }
    ids = np.array(sorted(users), dtype=np.int64)
    gender = np.empty(len(ids), dtype=np.int64)
    age = np.empty(len(ids), dtype=np.int64)
    occupation = np.empty(len(ids), dtype=np.int64)
    occ_index = {name: i for i, name in enumerate(ML100K_OCCUPATIONS)}
    for row, uid in enumerate(ids):
        rec_age, rec_gender, rec_occupation = users[int(uid)]
        g = rec_gender.strip().upper()
        if g not in ("M", "F"):
            raise ValueError(f"user {uid}: unknown gender {rec_gender!r}")
        gender[row] = 0 if g == "M" else 1
        age[row] = _reference_age_bin(rec_age, dataset_tag)
        occ = rec_occupation.strip()
        if dataset_tag == "ml-100k":
            if occ not in occ_index:
                raise ValueError(f"user {uid}: unknown occupation {occ!r}")
            occupation[row] = occ_index[occ]
        else:
            code = int(occ)
            if not 0 <= code < 21:
                raise ValueError(f"user {uid}: occupation code {code} outside [0, 21)")
            occupation[row] = code
    table = AttributeTable(
        [
            Attribute("gender", 2, gender),
            Attribute("age", 3, age),
            Attribute("occupation", 21, occupation),
        ],
        ids,
    )
    return reference_align(table, dataset) if dataset is not None else table


def reference_micro_f1(predictions, labels) -> float:
    """Micro-averaged F1 in percent from TP/FP/FN counts pooled over classes."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    classes = np.union1d(predictions, labels)
    tp = fp = fn = 0
    for cls in classes:
        tp += int(((predictions == cls) & (labels == cls)).sum())
        fp += int(((predictions == cls) & (labels != cls)).sum())
        fn += int(((predictions != cls) & (labels == cls)).sum())
    if tp == 0 and fp == 0 and fn == 0:
        return 0.0
    return 100.0 * 2.0 * tp / (2.0 * tp + fp + fn)


def _reference_attack_one(U, labels, cardinality, folds, max_iterations):
    spec = folds
    for attempt in range(20):
        ok = all(
            len(np.unique(labels[spec.assignments != f])) >= 2 for f in range(spec.n_folds)
        )
        if ok:
            break
        log.warning(
            "fold split (seed=%d) left a train side single-class; regenerating", spec.seed
        )
        spec = make_folds(len(U), spec.n_folds, spec.seed + 1 + attempt)
    else:
        raise ValueError("could not build folds with >=2 train classes")
    baccs, f1s = [], []
    for f in range(spec.n_folds):
        train_mask = spec.assignments != f
        net = train_attacker(
            U[train_mask], labels[train_mask], cardinality, seed=spec.seed * 1000 + f,
            max_iterations=max_iterations,
        )
        preds = predict(net, U[~train_mask])
        baccs.append(bacc(preds, labels[~train_mask]))
        f1s.append(micro_f1(preds, labels[~train_mask]))
    return AttributeAttackStats(
        bacc_mean=float(np.mean(baccs)),
        bacc_std=float(np.std(baccs)),
        f1_mean=float(np.mean(f1s)),
        f1_std=float(np.std(f1s)),
    )


def reference_attack_metrics(U, attributes, folds, max_iterations=500) -> AttackReport:
    """The cross-validated attack as one serial loop: attribute by attribute,
    fold by fold, each attribute's folds regenerated just before its fits."""
    entries = attributes.entries() if isinstance(attributes, AttributeTable) else attributes
    per_attr = {}
    for name, labels, cardinality in entries:
        labels = np.asarray(labels)
        if len(labels) != len(U):
            raise ValueError(f"attribute {name!r}: labels do not cover all users")
        per_attr[name] = _reference_attack_one(U, labels, cardinality, folds, max_iterations)
    return AttackReport(
        per_attribute=per_attr,
        bacc_average=float(np.mean([s.bacc_mean for s in per_attr.values()])),
        f1_average=float(np.mean([s.f1_mean for s in per_attr.values()])),
    )


def central_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Elementwise central differences of a scalar function of an array."""
    x = x.copy()
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        up = fn(x)
        flat[j] = orig - h
        down = fn(x)
        flat[j] = orig
        gflat[j] = (up - down) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-8) -> float:
    a, n = analytic.reshape(-1), numeric.reshape(-1)
    denom = np.maximum(np.abs(a), np.abs(n))
    mask = denom >= floor
    if not mask.any():
        return 0.0
    return float((np.abs(a - n)[mask] / denom[mask]).max())


def linear_probe_bacc(
    X: np.ndarray, labels: np.ndarray, train_frac: float = 0.8, seed: int = 0, ridge: float = 1e-3
) -> float:
    """Closed-form ridge regression to one-hot targets, argmax decision, BAcc on holdout."""
    rng = np.random.default_rng(seed)
    n = len(X)
    order = rng.permutation(n)
    cut = int(train_frac * n)
    tr, te = order[:cut], order[cut:]
    p = int(labels.max()) + 1
    Y = np.zeros((len(tr), p))
    Y[np.arange(len(tr)), labels[tr]] = 1.0
    Xtr = np.column_stack([X[tr], np.ones(len(tr))])
    W = np.linalg.solve(Xtr.T @ Xtr + ridge * np.eye(Xtr.shape[1]), Xtr.T @ Y)
    Xte = np.column_stack([X[te], np.ones(len(te))])
    preds = (Xte @ W).argmax(axis=1)
    return bacc(preds, labels[te])


def exact_mi_nats(joint: np.ndarray) -> float:
    """Direct double-sum MI, written independently of the library oracle."""
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    total = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                total += joint[i, j] * np.log(joint[i, j] / (px[i] * py[j]))
    return total
