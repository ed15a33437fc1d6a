def freq_se(p: float, n: int) -> float:
    return (p * (1.0 - p) / n) ** 0.5
