"""Distributed heavy-ball optimization and consensus simulator."""
